// Encodings of experiment state for checkpoint payloads.
//
// Two kinds of record live inside a checkpoint file (docs/CHECKPOINTING.md):
//
//  * an ExperimentConfig encoding — the campaign's identity. A resume
//    re-derives its experiment sequence from the same binary+flags and
//    verifies each config byte-for-byte against the checkpoint, so a
//    checkpoint can never silently continue a *different* campaign;
//
//  * an ExperimentResult encoding — a completed experiment, replayed on
//    resume instead of re-run. Every double is stored by bit pattern, so
//    replayed results reproduce the original artifact bytes exactly.
//
// Nothing of an in-flight run is stored: a run is a pure function of its
// config and seed, so a resume re-runs it from its start.
#pragma once

#include <string>

#include "ckpt/serial.hpp"
#include "core/experiment.hpp"

namespace greencap::core::ckpt_io {

/// Where a run checkpoint was taken: the virtual time of the stopped run.
struct RunState {
  double t_virtual_s = 0.0;
};

void encode_config(ckpt::Writer& w, const ExperimentConfig& config);
[[nodiscard]] ExperimentConfig decode_config(ckpt::Reader& r);
/// The config's canonical encoding, used for campaign-identity matching.
[[nodiscard]] std::string config_bytes(const ExperimentConfig& config);

/// Result encodings carry whether the run captured observability. A decoded
/// result has no capture: its artifacts were exported before its commit.
void encode_result(ckpt::Writer& w, const ExperimentResult& result);
[[nodiscard]] ExperimentResult decode_result(ckpt::Reader& r);

}  // namespace greencap::core::ckpt_io
