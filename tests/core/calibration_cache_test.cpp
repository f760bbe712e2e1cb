// The campaign-shared warmup cache: exactly-once compute per key, address-
// stable snapshots under thread contention, throw-and-retry semantics, and
// the load-bearing guarantee that a cached warmup leaves the perf models in
// a state bit-identical to a run that computed everything locally.
#include "core/calibration_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/run_context.hpp"

namespace greencap::core {
namespace {

TEST(CalibrationCache, BestCapComputesOncePerKey) {
  CalibrationCache cache;
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    return 165.0;
  };
  EXPECT_DOUBLE_EQ(cache.best_cap_w("a100|double|5760", compute), 165.0);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("a100|double|5760", compute), 165.0);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CalibrationCache, DistinctKeysComputeIndependently) {
  CalibrationCache cache;
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k1", [] { return 1.0; }), 1.0);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k2", [] { return 2.0; }), 2.0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CalibrationCache, ThrowingComputeIsRetriedNotCached) {
  CalibrationCache cache;
  bool first = true;
  const auto compute = [&first]() -> double {
    if (first) {
      first = false;
      throw std::runtime_error{"transient"};
    }
    return 7.0;
  };
  EXPECT_THROW((void)cache.best_cap_w("k", compute), std::runtime_error);
  EXPECT_DOUBLE_EQ(cache.best_cap_w("k", compute), 7.0);
}

TEST(CalibrationCache, SameKeyAcrossThreadsSharesOneSnapshot) {
  CalibrationCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&computes] {
    ++computes;
    // Widen the race window so late arrivals block on the once_flag
    // rather than finding a finished entry.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rt::CalibrationRecord record;
    record.codelets.emplace_back("dgemm");
    record.entries.push_back({0, 3, hw::KernelWork{}, 0.125});
    return record;
  };
  constexpr int kThreads = 8;
  std::vector<const rt::CalibrationRecord*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { seen[static_cast<std::size_t>(t)] = &cache.calibration("key", compute); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  ASSERT_EQ(seen[0]->entries.size(), 1u);
  EXPECT_EQ(seen[0]->codelets.at(seen[0]->entries[0].codelet), "dgemm");
  EXPECT_EQ(seen[0]->entries[0].worker, 3);
  EXPECT_DOUBLE_EQ(seen[0]->entries[0].time_s, 0.125);
}

ExperimentConfig small_gemm(const std::string& ladder) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 74880;
  cfg.nb = 5760;
  cfg.gpu_config = power::GpuConfig::parse(ladder);
  return cfg;
}

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.gflops, b.gflops);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_DOUBLE_EQ(a.efficiency_gflops_per_w, b.efficiency_gflops_per_w);
  ASSERT_EQ(a.energy.gpu_joules.size(), b.energy.gpu_joules.size());
  for (std::size_t g = 0; g < a.energy.gpu_joules.size(); ++g) {
    EXPECT_DOUBLE_EQ(a.energy.gpu_joules[g], b.energy.gpu_joules[g]) << "gpu " << g;
  }
  ASSERT_EQ(a.energy.cpu_joules.size(), b.energy.cpu_joules.size());
  for (std::size_t c = 0; c < a.energy.cpu_joules.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.energy.cpu_joules[c], b.energy.cpu_joules[c]) << "cpu " << c;
  }
  EXPECT_EQ(a.cpu_tasks, b.cpu_tasks);
  EXPECT_EQ(a.gpu_tasks, b.gpu_tasks);
  EXPECT_EQ(a.stats.tasks_completed, b.stats.tasks_completed);
  EXPECT_DOUBLE_EQ(a.stats.makespan.sec(), b.stats.makespan.sec());
}

TEST(CalibrationCache, CachedWarmupIsBitIdenticalToUncached) {
  // Reference runs: no services, every run computes its own sweep and
  // calibration. Cached runs: the second run replays the first's record.
  const ExperimentResult plain_hhbb = run_experiment(small_gemm("HHBB"));

  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  const ExperimentResult warm = run_experiment(small_gemm("HHBB"), services);
  const ExperimentResult replayed = run_experiment(small_gemm("HHBB"), services);

  expect_bit_identical(plain_hhbb, warm);
  expect_bit_identical(plain_hhbb, replayed);
  EXPECT_GT(cache.hits(), 0u) << "second run should have reused the cached warmup";
}

TEST(CalibrationCache, DifferentLaddersDoNotShareCalibrations) {
  // HHHH and BBBB calibrate under different applied caps, so their records
  // must live under different keys and reproduce the uncached results.
  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  const ExperimentResult hhhh = run_experiment(small_gemm("HHHH"), services);
  const ExperimentResult bbbb = run_experiment(small_gemm("BBBB"), services);
  expect_bit_identical(hhhh, run_experiment(small_gemm("HHHH")));
  expect_bit_identical(bbbb, run_experiment(small_gemm("BBBB")));
  EXPECT_NE(hhhh.time_s, bbbb.time_s);
}

TEST(CalibrationCache, FaultInjectingRunsBypassTheCache) {
  // A faulty run's measurements depend on the injected events; it must
  // neither poison the cache nor consume a clean run's record.
  CalibrationCache cache;
  RunServices services;
  services.calibration = &cache;
  ExperimentConfig faulty = small_gemm("HHBB");
  faulty.resilience.faults = "capfail@gpu2:count=1";
  faulty.resilience.degrade = true;
  const ExperimentResult with_cache = run_experiment(faulty, services);
  const ExperimentResult without_cache = run_experiment(faulty);
  expect_bit_identical(with_cache, without_cache);
}

}  // namespace
}  // namespace greencap::core
