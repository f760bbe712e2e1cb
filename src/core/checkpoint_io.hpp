// Encoding/decoding of experiment state for checkpoint payloads.
//
// Three kinds of blob live inside a checkpoint file (docs/CHECKPOINTING.md):
//
//  * an ExperimentConfig encoding — the campaign's identity. A resume
//    re-derives its experiment sequence from the same binary+flags and
//    verifies each config byte-for-byte against the checkpoint, so a
//    checkpoint can never silently continue a *different* campaign;
//
//  * an ExperimentResult encoding — a completed experiment, replayed on
//    resume instead of re-run. Every double is stored by bit pattern, so
//    replayed results reproduce the original artifact bytes exactly;
//
//  * a run state — the complete mid-flight state of one experiment:
//    runtime state (DAG progress, workers, perf models, RNG),
//    device/meter states, monotonic energy trackers, power-manager and
//    fault-injector state, observability series, and the pending
//    simulator events in their original scheduling order. There is no
//    in-memory copy of it: RunContext::capture_run_state() encodes each
//    piece straight from the live object that owns it, and
//    RunContext::restore() decodes each piece straight back into it. The
//    runtime, power manager and fault injector write their private state
//    through their own save()/load() members; the codecs below cover the
//    state reachable through public getters and restore calls.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.hpp"
#include "core/experiment.hpp"
#include "hw/energy_meter.hpp"
#include "hw/platform.hpp"
#include "obs/telemetry.hpp"

namespace greencap::core::ckpt_io {

/// Pending simulator events are captured sorted by their original event
/// sequence number and re-created on resume in exactly that order, which
/// preserves the (time, seq) tie-break of the original run.
enum class EventKind : std::uint8_t {
  kWorkerBegin = 1,  ///< index = worker id
  kWorkerEnd = 2,    ///< index = worker id
  kReconcile = 3,    ///< power-manager reconciliation tick
  kTelemetry = 4,    ///< telemetry sampling tick
  kFault = 5,        ///< index = fault-plan event index
  kWatchdog = 6,     ///< hang-watchdog probe
  kCkptTick = 7,     ///< periodic checkpoint tick
};

struct EventRecord {
  EventKind kind = EventKind::kWorkerBegin;
  std::int32_t index = -1;
  double when_s = 0.0;
  /// Original scheduling order; not encoded (the file holds the events in
  /// this order).
  std::uint64_t seq = 0;
};

/// One captured run state: the "RUN1" encoding and the virtual time it
/// was taken at.
struct RunState {
  double t_virtual_s = 0.0;
  std::string bytes;
};

/// Live observability sinks of one run; a null member is not recorded,
/// and a checkpoint that carries data for it is rejected on decode.
struct ObsSinks {
  sim::Trace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::DecisionLog* decisions = nullptr;
  obs::TelemetrySampler* telemetry = nullptr;
};

void encode_config(ckpt::Writer& w, const ExperimentConfig& config);
[[nodiscard]] ExperimentConfig decode_config(ckpt::Reader& r);
/// The config's canonical encoding, used for campaign-identity matching.
[[nodiscard]] std::string config_bytes(const ExperimentConfig& config);

/// Result encodings carry whether the run captured observability. A decoded
/// result has no capture: its artifacts were exported before its commit.
void encode_result(ckpt::Writer& w, const ExperimentResult& result);
[[nodiscard]] ExperimentResult decode_result(ckpt::Reader& r);

void put_energy_reading(ckpt::Writer& w, const hw::EnergyReading& reading);
[[nodiscard]] hw::EnergyReading get_energy_reading(ckpt::Reader& r);

/// "DEVS": GPU/CPU caps, busy/failed flags, energy meters, and the GPUs'
/// monotonic energy trackers. Decoding throws ckpt::CheckpointError when
/// the device counts differ from the live platform's.
void put_devices(ckpt::Writer& w, const hw::Platform& platform,
                 const std::vector<hw::MonotonicEnergyTracker>& trackers);
void get_devices(ckpt::Reader& r, hw::Platform& platform,
                 std::vector<hw::MonotonicEnergyTracker>& trackers);

/// "OBSS": trace spans and markers, metrics, decisions, telemetry rows and
/// degradation events. Decoding restores them into the sinks (telemetry
/// rows only: re-arming the sampler is the caller's job).
void put_observability(ckpt::Writer& w, const ObsSinks& sinks,
                       const fault::DegradationReport& degradation);
void get_observability(ckpt::Reader& r, const ObsSinks& sinks,
                       fault::DegradationReport& degradation);

/// "EVTS": the pending events, written in ascending original sequence
/// number. Decoding rejects an unknown event kind.
void put_events(ckpt::Writer& w, std::vector<EventRecord> pending);
[[nodiscard]] std::vector<EventRecord> get_events(ckpt::Reader& r);

}  // namespace greencap::core::ckpt_io
