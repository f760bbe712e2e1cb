// Deterministic parallel campaign engine.
//
// A campaign is an ordered list of ExperimentConfigs. Runs are completely
// independent by construction (each one owns a private RunContext), so the
// engine executes them on a fixed-size worker pool and still reproduces the
// serial campaign bit for bit:
//
//   * every run gets an isolated context — no shared mutable state;
//   * the only cross-run sharing is the CalibrationCache, whose snapshots
//     are immutable and whose cached warmups are bit-identical to local
//     computation (see core/calibration_cache.hpp);
//   * results are collected by input index, and the on_result hook fires on
//     the calling thread in strict index order as each prefix completes —
//     artifact and stdout emission therefore order identically at any
//     --jobs value.
//
// One private ordered loop does all of it: work(i) runs on up to `jobs`
// threads, emit(i) on the calling thread in index order. run() is that loop
// with run_experiment as the work and the hook as the emit; for_each_index
// is it with no emit. Given a checkpoint session, run() is the same loop at
// jobs == 1: write a boundary checkpoint, then replay or run each index,
// fire the hook (drivers export there, so artifacts land before the
// commit), commit fresh results, and honour a latched SIGINT/SIGTERM after
// the last commit. Sessions require jobs == 1;
// the drivers' flag table diagnoses the combination before anything runs.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/calibration_cache.hpp"
#include "core/experiment.hpp"

namespace greencap::core {

class CheckpointSession;  // core/checkpoint.hpp

struct EngineOptions {
  /// Worker threads: 1 = serial (default), 0 = hardware concurrency.
  int jobs = 1;
};

/// --jobs semantics: 0 → hardware concurrency (at least 1), n → n.
[[nodiscard]] int resolve_jobs(int jobs);

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineOptions options = {});

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Called on the engine's calling thread, in strict index order, once per
  /// completed run. The result reference stays valid until run() returns.
  using ResultHook = std::function<void(std::size_t index, ExperimentResult& result)>;

  /// Executes every config and returns the results in input order. If any
  /// run (or the hook) throws, workers stop claiming new indices, in-flight
  /// runs drain, the hook fires for exactly the indices below the lowest
  /// failure, and that failure's exception is rethrown — what a serial
  /// campaign would have done.
  /// With a session a boundary checkpoint is written first (when the
  /// session writes), then each index is replayed or run, handed to the
  /// hook, and committed if fresh; after the last commit a latched interrupt throws
  /// ckpt::InterruptedError. A session at jobs != 1 throws
  /// std::invalid_argument before any run or write.
  std::vector<ExperimentResult> run(const std::vector<ExperimentConfig>& configs,
                                    const ResultHook& on_result = {},
                                    CheckpointSession* session = nullptr);

  /// Deterministic fan-out for index-addressable work that is not an
  /// ExperimentConfig (cap sweeps, custom simulation streams). `fn(i)` must
  /// touch only state owned by index i; exceptions surface as in run().
  void for_each_index(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The campaign-shared warmup cache, for inspection in tests.
  [[nodiscard]] CalibrationCache& cache() { return cache_; }

 private:
  /// work(i) for every i < count on up to jobs_ threads; emit(i) on the
  /// calling thread in index order, after every earlier index was emitted.
  /// After a failure no new index is claimed, nothing at or past the lowest
  /// failed index is emitted, and its exception is rethrown once the pool
  /// has joined. At one job this is a plain serial loop. An empty emit
  /// skips the in-order wait: the calling thread only joins the pool.
  void run_ordered(std::size_t count, const std::function<void(std::size_t)>& work,
                   const std::function<void(std::size_t)>& emit);

  int jobs_;
  CalibrationCache cache_;
};

}  // namespace greencap::core
