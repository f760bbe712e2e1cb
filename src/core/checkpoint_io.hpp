// Encodings of experiment state for checkpoint payloads.
//
// Three kinds of record live inside a checkpoint file (docs/CHECKPOINTING.md):
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
//  * a run marker — where a mid-run checkpoint was taken. A run is a pure
//    function of its config and seed, so a resume re-runs the in-flight
//    experiment from its start instead of restoring its state, and checks
//    the marker's digest of cheap state when it reaches the marked tick.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "ckpt/serial.hpp"
#include "core/experiment.hpp"

namespace greencap::core::ckpt_io {

/// One run checkpoint as the checkpointer hands it to the session: the
/// encoded RunMarker and the virtual time it was taken at.
struct RunState {
  double t_virtual_s = 0.0;
  std::string bytes;
};

/// "MARK": where a run checkpoint was taken, and a digest of the run's
/// cheap state there, which a replay must reproduce bit for bit.
struct RunMarker {
  std::uint64_t experiment = 0;        ///< campaign index of the in-flight experiment
  double t_virtual_s = 0.0;            ///< virtual clock at the tick
  std::uint64_t events = 0;            ///< simulator events processed, the tick's own included
  std::uint64_t tasks_completed = 0;
  double energy_j = 0.0;               ///< every device meter's joules, GPUs then CPU packages
  std::array<std::uint64_t, 4> rng{};  ///< the runtime's RNG state
};

/// The encoded size of every RunMarker: the tag and nine 8-byte fields.
inline constexpr std::size_t kRunMarkerBytes = 4 + 9 * 8;

[[nodiscard]] std::string encode_marker(const RunMarker& marker);
/// Throws ckpt::CheckpointError unless `bytes` is exactly one marker.
[[nodiscard]] RunMarker decode_marker(std::string_view bytes);

void encode_config(ckpt::Writer& w, const ExperimentConfig& config);
[[nodiscard]] ExperimentConfig decode_config(ckpt::Reader& r);
/// The config's canonical encoding, used for campaign-identity matching.
[[nodiscard]] std::string config_bytes(const ExperimentConfig& config);

/// Result encodings carry whether the run captured observability. A decoded
/// result has no capture: its artifacts were exported before its commit.
void encode_result(ckpt::Writer& w, const ExperimentResult& result);
[[nodiscard]] ExperimentResult decode_result(ckpt::Reader& r);

}  // namespace greencap::core::ckpt_io
