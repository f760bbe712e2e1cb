// Randomized DAG fuzzer: sequential consistency as an executable oracle.
//
// Random tasks perform random R/W/RW accesses over a pool of integer
// cells. Each task's kernel folds the values it reads and writes a
// deterministic function of (fold, task id) into its written cells. If the
// runtime's implicit dependency inference or its event ordering were wrong
// in any way — a missed WAR edge, an overlapping RW pair, a transfer
// marking data valid too early — the parallel execution would disagree
// with the sequential replay of the same submission order.
#include <gtest/gtest.h>

#include <vector>

#include "hw/presets.hpp"
#include "rt/runtime.hpp"
#include "sim/rng.hpp"

namespace greencap::rt {
namespace {

struct FuzzCase {
  const char* scheduler;
  std::uint64_t seed;
  int handles;
  int tasks;
};

class DagFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DagFuzz, ParallelExecutionMatchesSequentialReplay) {
  const FuzzCase& fc = GetParam();
  sim::Xoshiro256 rng{fc.seed};

  // The shared codelet: fold reads, stamp writes.
  Codelet folder;
  folder.name = "folder";
  folder.klass = hw::KernelClass::kGeneric;
  folder.where = kWhereAny;
  folder.cpu_func = [](Task& task) {
    // Hashed in unsigned arithmetic: the fold wraps on long chains.
    std::uint64_t acc = 0;
    for (const TaskAccess& a : task.accesses()) {
      if (a.mode != AccessMode::kWrite) {
        acc = acc * 131 +
              static_cast<std::uint64_t>(*static_cast<std::int64_t*>(a.handle->host_ptr()));
      }
    }
    for (const TaskAccess& a : task.accesses()) {
      if (is_write(a.mode)) {
        *static_cast<std::int64_t*>(a.handle->host_ptr()) =
            static_cast<std::int64_t>(acc * 31 + static_cast<std::uint64_t>(task.id()));
      }
    }
  };

  // Generate the access script once; replay it twice.
  struct ScriptTask {
    std::vector<std::pair<int, AccessMode>> accesses;
  };
  std::vector<ScriptTask> script(fc.tasks);
  for (auto& st : script) {
    const int n_acc = 1 + static_cast<int>(rng.below(4));
    std::vector<bool> used(fc.handles, false);
    for (int a = 0; a < n_acc; ++a) {
      int h = static_cast<int>(rng.below(fc.handles));
      if (used[h]) continue;  // no duplicate handles within a task
      used[h] = true;
      const auto mode = static_cast<AccessMode>(rng.below(3));
      st.accesses.emplace_back(h, mode);
    }
    if (st.accesses.empty()) {
      st.accesses.emplace_back(0, AccessMode::kReadWrite);
    }
  }

  // 1. Sequential reference.
  std::vector<std::int64_t> expected(fc.handles);
  for (int h = 0; h < fc.handles; ++h) expected[h] = h + 1;
  for (std::size_t t = 0; t < script.size(); ++t) {
    std::uint64_t acc = 0;
    for (const auto& [h, mode] : script[t].accesses) {
      if (mode != AccessMode::kWrite) acc = acc * 131 + static_cast<std::uint64_t>(expected[h]);
    }
    for (const auto& [h, mode] : script[t].accesses) {
      if (is_write(mode)) expected[h] = static_cast<std::int64_t>(acc * 31 + t);
    }
  }

  // 2. Parallel execution through the runtime.
  hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim;
  RuntimeOptions opts;
  opts.scheduler = fc.scheduler;
  opts.execute_kernels = true;
  opts.exec_noise_rel = 0.10;  // jitter the timing to vary interleavings
  opts.seed = fc.seed;
  Runtime runtime{platform, sim, opts};

  std::vector<std::int64_t> cells(fc.handles);
  std::vector<DataHandle*> handles(fc.handles);
  for (int h = 0; h < fc.handles; ++h) {
    cells[h] = h + 1;
    handles[h] = runtime.register_data(sizeof(std::int64_t), &cells[h]);
  }
  for (std::size_t t = 0; t < script.size(); ++t) {
    TaskDesc desc;
    desc.codelet = &folder;
    // Vary durations so independent tasks genuinely overlap and reorder.
    desc.work = hw::KernelWork{hw::KernelClass::kGeneric, hw::Precision::kDouble,
                               1e8 + 1e9 * rng.uniform(), 1024};
    desc.priority = static_cast<std::int64_t>(rng.below(5));
    for (const auto& [h, mode] : script[t].accesses) {
      desc.accesses.push_back({handles[h], mode});
    }
    runtime.submit(std::move(desc));
  }
  runtime.wait_all();

  EXPECT_EQ(cells, expected) << "scheduler=" << fc.scheduler << " seed=" << fc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersAndSeeds, DagFuzz,
    ::testing::Values(FuzzCase{"eager", 1, 6, 150}, FuzzCase{"eager", 2, 12, 300},
                      FuzzCase{"random", 3, 6, 150}, FuzzCase{"random", 4, 12, 300},
                      FuzzCase{"ws", 5, 6, 150}, FuzzCase{"ws", 6, 12, 300},
                      FuzzCase{"dm", 7, 6, 150}, FuzzCase{"dm", 8, 12, 300},
                      FuzzCase{"dmda", 9, 6, 150}, FuzzCase{"dmda", 10, 12, 300},
                      FuzzCase{"dmdas", 11, 6, 150}, FuzzCase{"dmdas", 12, 12, 300},
                      FuzzCase{"dmdae", 13, 6, 150}, FuzzCase{"dmdae", 14, 12, 300},
                      FuzzCase{"dmdas", 15, 3, 500}, FuzzCase{"dmdas", 16, 24, 500}),
    [](const auto& param_info) {
      return std::string{param_info.param.scheduler} + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace greencap::rt
