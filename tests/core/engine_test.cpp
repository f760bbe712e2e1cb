// The parallel campaign engine: results and hooks come back in input order
// on the calling thread at any job count, parallel campaigns reproduce the
// serial ones bit for bit, failures surface as the serial campaign would
// have surfaced them, and the warmup cache actually gets shared. With a
// checkpoint session the engine owns the session protocol: hook before
// commit, replayed prefixes through the hook, serial only, and an
// interrupt honoured after the last commit.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/file.hpp"
#include "ckpt/signal.hpp"
#include "core/checkpoint.hpp"

namespace greencap::core {
namespace {

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

std::vector<ExperimentConfig> ladder_campaign() {
  std::vector<ExperimentConfig> configs;
  for (const char* ladder : {"HHHH", "HHHB", "HHBB", "HBBB", "BBBB", "HHLL"}) {
    configs.push_back(small_gemm(ladder));
  }
  return configs;
}

TEST(Engine, ResolveJobsSemantics) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_GE(resolve_jobs(0), 1);  // 0 = hardware concurrency, at least one
}

TEST(Engine, ParallelResultsMatchSerialBitForBit) {
  const std::vector<ExperimentConfig> configs = ladder_campaign();

  EngineOptions serial_opts;
  serial_opts.jobs = 1;
  CampaignEngine serial{serial_opts};
  const std::vector<ExperimentResult> expected = serial.run(configs);

  for (int jobs : {4, 8}) {
    EngineOptions opts;
    opts.jobs = jobs;
    CampaignEngine engine{opts};
    const std::vector<ExperimentResult> got = engine.run(configs);
    ASSERT_EQ(got.size(), expected.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].time_s, expected[i].time_s) << "jobs=" << jobs << " run " << i;
      EXPECT_DOUBLE_EQ(got[i].total_energy_j, expected[i].total_energy_j)
          << "jobs=" << jobs << " run " << i;
      EXPECT_DOUBLE_EQ(got[i].efficiency_gflops_per_w, expected[i].efficiency_gflops_per_w)
          << "jobs=" << jobs << " run " << i;
      EXPECT_EQ(got[i].cpu_tasks, expected[i].cpu_tasks) << "jobs=" << jobs << " run " << i;
      EXPECT_EQ(got[i].config.gpu_config.to_string(), expected[i].config.gpu_config.to_string());
    }
  }
}

TEST(Engine, HookFiresInIndexOrderOnTheCallingThread) {
  const std::vector<ExperimentConfig> configs = ladder_campaign();
  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  (void)engine.run(configs, [&](std::size_t index, ExperimentResult& result) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_GT(result.time_s, 0.0);
    order.push_back(index);
  });
  ASSERT_EQ(order.size(), configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, LowestIndexFailureIsTheOneRethrown) {
  // Index 2 has an invalid geometry (n not a multiple of nb) and index 4
  // an unknown platform; the serial campaign would die on index 2 first,
  // so the parallel one must surface that error too.
  std::vector<ExperimentConfig> configs = ladder_campaign();
  configs[2].n = 100;
  configs[2].nb = 33;
  configs[4].platform = "no-such-platform";

  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};
  try {
    (void)engine.run(configs);
    FAIL() << "expected the campaign to rethrow";
  } catch (const std::invalid_argument& e) {
    // Index 2's geometry error, not index 4's unknown-platform error.
    EXPECT_NE(std::string{e.what()}.find("multiple of nb"), std::string::npos) << e.what();
  }
}

TEST(Engine, HookIndicesStopAtTheFailure) {
  std::vector<ExperimentConfig> configs = ladder_campaign();
  configs[3].platform = "no-such-platform";
  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};
  std::vector<std::size_t> order;
  EXPECT_THROW((void)engine.run(configs,
                                [&](std::size_t index, ExperimentResult&) {
                                  order.push_back(index);
                                }),
               std::exception);
  // The completed prefix 0..2 may fire; nothing at or past the failure may.
  for (const std::size_t index : order) {
    EXPECT_LT(index, 3u);
  }
}

TEST(Engine, ForEachIndexCoversEveryIndexExactlyOnce) {
  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> touched(kCount);
  engine.for_each_index(kCount, [&](std::size_t i) { ++touched[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(Engine, ForEachIndexPropagatesTheLowestIndexError) {
  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};
  try {
    engine.for_each_index(16, [&](std::size_t i) {
      if (i == 3 || i == 11) {
        throw std::runtime_error{"index " + std::to_string(i)};
      }
    });
    FAIL() << "expected for_each_index to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

TEST(Engine, CampaignSharesTheWarmupCacheAcrossRuns) {
  // Six runs of the same platform/precision/tile geometry: one best-cap
  // sweep and a handful of calibration records should serve all of them.
  EngineOptions opts;
  opts.jobs = 4;
  CampaignEngine engine{opts};
  (void)engine.run(ladder_campaign());
  EXPECT_GT(engine.cache().hits(), 0u);
  EXPECT_GT(engine.cache().misses(), 0u);
  // A second identical campaign must hit for every lookup.
  const std::uint64_t misses_before = engine.cache().misses();
  (void)engine.run(ladder_campaign());
  EXPECT_EQ(engine.cache().misses(), misses_before);
}

TEST(Engine, EmptyCampaignIsANoOp) {
  CampaignEngine engine;
  EXPECT_TRUE(engine.run({}).empty());
  engine.for_each_index(0, [](std::size_t) { FAIL() << "no indices to visit"; });
}

class EngineSession : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "engine_session_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gckp";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    ckpt::clear_interrupt();
    std::remove(path_.c_str());
  }

  /// Boundary checkpoints only: one write per committed experiment.
  [[nodiscard]] CheckpointOptions boundary_only() const {
    CheckpointOptions options;
    options.path = path_;
    return options;
  }

  static std::vector<ExperimentConfig> campaign() {
    return {small_gemm("HHHH"), small_gemm("HHBB"), small_gemm("BBBB")};
  }

  /// The encoding a checkpoint stores: equal bytes is the resume guarantee.
  static std::string result_bytes(const ExperimentResult& r) {
    ckpt::Writer w;
    ckpt_io::encode_result(w, r);
    return w.take();
  }

  std::string path_;
};

TEST_F(EngineSession, HookRunsBeforeTheCommit) {
  const std::vector<ExperimentConfig> configs = campaign();
  CheckpointSession session{boundary_only()};
  CampaignEngine engine;
  std::size_t hooks = 0;
  (void)engine.run(
      configs,
      [&](std::size_t index, ExperimentResult&) {
        EXPECT_EQ(session.writes(), static_cast<int>(index));
        ++hooks;
      },
      &session);
  EXPECT_EQ(hooks, configs.size());
  EXPECT_EQ(session.writes(), static_cast<int>(configs.size()));
}

TEST_F(EngineSession, ResumeReplaysThePrefixThroughTheHookBitForBit) {
  const std::vector<ExperimentConfig> configs = campaign();
  CampaignEngine plain;
  const std::vector<ExperimentResult> fresh = plain.run(configs);
  {
    CheckpointSession first{boundary_only()};
    CampaignEngine engine;
    (void)engine.run({configs[0], configs[1]}, {}, &first);
  }

  CheckpointOptions options = boundary_only();
  options.resume_path = path_;
  CheckpointSession session{options};
  CampaignEngine engine;
  std::vector<std::string> hooked(configs.size());
  (void)engine.run(
      configs, [&](std::size_t index, ExperimentResult& r) { hooked[index] = result_bytes(r); },
      &session);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(hooked[i], result_bytes(fresh[i])) << "run " << i;
  }
  EXPECT_EQ(session.writes(), 1);  // only the third run was fresh
}

TEST_F(EngineSession, ParallelSessionThrowsBeforeAnyWrite) {
  CheckpointSession session{boundary_only()};
  EngineOptions options;
  options.jobs = 2;
  CampaignEngine engine{options};
  bool hooked = false;
  EXPECT_THROW(
      (void)engine.run(campaign(), [&](std::size_t, ExperimentResult&) { hooked = true; },
                       &session),
      std::invalid_argument);
  EXPECT_FALSE(hooked);
  EXPECT_EQ(session.writes(), 0);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(EngineSession, InterruptDuringTheLastRunCommitsEveryResultThenThrows) {
  const std::vector<ExperimentConfig> configs = campaign();
  CheckpointSession session{boundary_only()};
  CampaignEngine engine;
  EXPECT_THROW((void)engine.run(
                   configs,
                   [&](std::size_t index, ExperimentResult&) {
                     if (index + 1 == configs.size()) {
                       ckpt::request_interrupt();
                     }
                   },
                   &session),
               ckpt::InterruptedError);
  const ckpt::CheckpointFile file = ckpt::read_checkpoint_file(path_);
  EXPECT_EQ(file.manifest.kind, "campaign");
  EXPECT_EQ(file.manifest.reason, "signal");
  EXPECT_EQ(file.manifest.completed, configs.size());
  EXPECT_EQ(session.writes(), static_cast<int>(configs.size()) + 1);
}

}  // namespace
}  // namespace greencap::core
