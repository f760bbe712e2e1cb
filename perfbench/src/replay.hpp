// The traced replay: every run of a pass again, phase by phase, through the
// library's public calls, with a span around each call into a layer.
//
// Span names are the layer boundaries: "run" (root), "core.context",
// "power.apply", "rt.calibrate", "core.protocol", "la.submit",
// "rt.execute", "ckpt.capture", "ckpt.write", "obs.export",
// "prof.analyze", "prof.write". The hardware models run inside
// "rt.execute".
#pragma once

#include <cstdint>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Work counts of one traced run, read from the library's own results.
struct RunCounts {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t dependency_edges = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t gpu_tasks = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t calibrations_measured = 0;  ///< 0 when replayed from the cache
  std::uint64_t cap_write_failures = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t degradations = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_spans = 0;
  std::uint64_t profile_bytes = 0;

  RunCounts& operator+=(const RunCounts& other);
};

struct TracedRun {
  RunDigest digest;
  SpanLog spans;
  RunCounts counts;
};

struct TracedPass {
  double wall_s = 0.0;
  std::vector<TracedRun> runs;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Replays one pass of `inputs` with the same engine, job count and cache
/// sharing as the untraced pass. Runs are numbered from `first_run_id` so
/// span ids stay unique across passes.
[[nodiscard]] TracedPass run_traced_pass(const Inputs& inputs, std::uint32_t first_run_id);

[[nodiscard]] std::vector<RunDigest> digests_of(const TracedPass& pass);

}  // namespace perfbench
