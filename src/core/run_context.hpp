// Per-run execution context.
//
// RunContext owns every piece of mutable state one experiment needs — the
// simulated platform and its event queue, the runtime, the power manager,
// the fault injector, energy trackers, the telemetry sampler, the
// observability sinks, and the checkpoint hooks. Nothing
// it touches is process-global, so any number of contexts can execute
// concurrently on different threads without sharing state; the campaign
// engine (core/engine.hpp) relies on exactly that.
//
// Construction wires the full component graph in the same order the old
// free-function driver did; the typed half of a run (codelets, tile
// matrices, task submission) stays in core/experiment.cpp and talks to the
// context through its accessors. Lifetimes: members are declared so that
// the runtime outlives nothing that registered with it, and callers must
// destroy their typed data (matrices, workspaces) before the context goes
// away — the same ordering the monolithic driver imposed by scoping.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "core/calibration_cache.hpp"
#include "core/checkpoint_io.hpp"
#include "core/experiment.hpp"
#include "fault/injector.hpp"
#include "hw/energy_meter.hpp"
#include "hw/platform.hpp"
#include "obs/telemetry.hpp"
#include "power/manager.hpp"
#include "rt/runtime.hpp"
#include "sim/simulator.hpp"

namespace greencap::core {

class CheckpointSession;

class RunContext {
 public:
  /// Builds the platform, simulator, injector, power manager, runtime,
  /// sampler, and energy trackers for `config`, resolves best caps (via
  /// the services' cache when present), and cross-wires observability.
  /// `config` is copied into the result; the reference need not outlive
  /// the constructor.
  RunContext(const ExperimentConfig& config, const RunServices& services);

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  [[nodiscard]] const ExperimentConfig& config() const { return result_.config; }
  [[nodiscard]] hw::Platform& platform() { return platform_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] rt::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] power::PowerManager& power() { return manager_; }
  [[nodiscard]] fault::FaultInjector* faults() { return injector_.get(); }
  [[nodiscard]] obs::TelemetrySampler& sampler() { return sampler_; }
  [[nodiscard]] ExperimentResult& result() { return result_; }
  [[nodiscard]] CalibrationCache* calibration_cache() { return services_.calibration; }

  /// Monotonic-tracked platform energy read (injected counter resets can
  /// never make end-minus-start go negative).
  hw::EnergyReading read_energy(sim::SimTime now);

  /// Applies the configured GPU ladder and CPU cap, if any.
  void apply_caps();

  /// Starts reconciliation and arms the fault plan per the measurement
  /// protocol (both skipped when `restoring`; drain hooks are registered
  /// either way).
  void start_resilience(bool restoring);

  /// Opens the measured window: arms telemetry, stamps t_begin, and takes
  /// the start-of-window energy reading.
  void begin_measurement();

  /// Creates and arms the periodic/watchdog checkpointer writing into
  /// `session`, if its options ask for mid-run checkpoints. Call after
  /// task submission.
  void attach_checkpointer(CheckpointSession& session);

  /// Encodes a run marker (ckpt_io::RunMarker) for the run as it stands:
  /// its virtual time and processed-event count, and a digest of its cheap
  /// state. The session stamps the campaign index when it writes the
  /// marker. Pure read: never advances meters or the clock, so a run with
  /// checkpointing on stays byte-identical.
  [[nodiscard]] ckpt_io::RunState capture_run_state();

  /// Resume: this run re-executes from its start with checkpoint writes
  /// suppressed until the tick `resume` marks. There its digest must equal
  /// the marker's, or ckpt::CheckpointError is thrown; later ticks write as
  /// usual. A signal or watchdog abort before the marked tick re-writes
  /// `resume` itself. Needs the checkpointer attached.
  void replay_to(ckpt_io::RunState resume);

  /// Drains the DAG, closes the measured window, and fills the result
  /// (energy, stats, fault counts, observability payload). Returns the
  /// completed result by move; the context is spent afterwards. Throws
  /// ckpt::CheckpointError when the run ends before a replay reached its
  /// marked tick.
  ExperimentResult finish();

 private:
  /// Checkpointer callback: writes a marker, or, while replaying, checks
  /// for the marked tick.
  void on_checkpoint(CheckpointSession& session, const char* reason);

  RunServices services_;
  hw::Platform platform_;
  sim::Simulator simulator_;
  ExperimentResult result_;
  std::unique_ptr<fault::FaultInjector> injector_;
  power::PowerManager manager_;
  std::shared_ptr<ObservabilityData> obs_data_;
  std::unique_ptr<rt::Runtime> runtime_;
  obs::TelemetrySampler sampler_;
  std::vector<hw::MonotonicEnergyTracker> gpu_energy_;
  sim::SimTime t_begin_;
  hw::EnergyReading start_energy_;
  std::unique_ptr<ckpt::Checkpointer> checkpointer_;
  /// The marker a resume replays to; empty once reached (or on a fresh run).
  std::optional<ckpt_io::RunState> replay_to_;
};

}  // namespace greencap::core
