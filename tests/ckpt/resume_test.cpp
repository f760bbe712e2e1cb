// The headline crash-consistency property, in-process: a campaign killed
// at an arbitrary checkpoint point (the chaos kill hook fires _Exit(137) at
// a periodic tick, or the instant a write's rename lands, like SIGKILL) and
// resumed from the surviving file produces a byte-identical result —
// including under in-flight fault injection and degradation. Every file
// holds only completed experiments: the resume re-runs the in-flight one
// from its start, and needs no tick flags to do so. Kill points are
// exercised via gtest death tests, so the kill happens in a forked child
// and the parent resumes from the file the child left behind.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/file.hpp"
#include "ckpt/signal.hpp"
#include "core/checkpoint_io.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "obs/trace_export.hpp"
#include "prof/profile.hpp"

namespace greencap::core {
namespace {

namespace ck = greencap::ckpt;

ExperimentConfig small_run(bool with_faults) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 23040;
  cfg.nb = 2880;
  cfg.gpu_config = power::GpuConfig::parse("HBBL");
  cfg.seed = 42;
  if (with_faults) {
    cfg.resilience.faults = "dropout@gpu1:t=0.05;capfail@gpu2:count=2";
    cfg.resilience.degrade = true;
    cfg.resilience.reconcile_ms = 25.0;
  }
  return cfg;
}

/// The observed, faulted, degrading 40x40-tile POTRF of the
/// chaos_killpoints_observed suite, with every capture on.
ExperimentConfig observed_potrf40() {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kPotrf;
  cfg.precision = hw::Precision::kDouble;
  cfg.nb = 2880;
  cfg.n = 40 * 2880;
  cfg.gpu_config = power::GpuConfig::parse("HHBB");
  cfg.resilience.faults =
      "capfail@gpu1:count=2;straggler@gpu3:t=1,until=4,factor=2.5;"
      "drift@gpu0:t=2,watts=250;dropout@gpu2:t=5";
  cfg.resilience.degrade = true;
  cfg.resilience.reconcile_ms = 500.0;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.decision_log = true;
  cfg.obs.telemetry_period_ms = 10.0;
  cfg.obs.profile = true;
  return cfg;
}

/// Canonical byte encoding of a result — the same encoding a checkpoint
/// stores, so "equal bytes" here is exactly the resume guarantee.
std::string result_bytes(const ExperimentResult& r) {
  ck::Writer w;
  ckpt_io::encode_result(w, r);
  return w.take();
}

/// Every export of a result's observability data, concatenated.
std::string observability_bytes(const ExperimentResult& r) {
  if (r.observability == nullptr) {
    return {};
  }
  const ObservabilityData& data = *r.observability;
  std::ostringstream os;
  obs::ChromeTraceOptions trace_options;
  trace_options.telemetry = &data.telemetry;
  trace_options.worker_names = data.worker_names;
  obs::write_chrome_trace(os, data.trace, trace_options);
  data.metrics.write_json(os);
  data.decisions.write_json(os);
  data.telemetry.write_json(os);
  prof::AnalyzeOptions profile_options;
  profile_options.decisions = &data.decisions;
  profile_options.telemetry = &data.telemetry;
  prof::analyze(data.capture, profile_options).write_json(os);
  return os.str();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Named after the test: ctest runs tests as concurrent processes, and
    // under ASan every process places the fixture at the same address.
    path_ = ::testing::TempDir() + "resume_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gckp";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    ck::clear_interrupt();
    std::remove(path_.c_str());
  }

  CheckpointOptions options(bool resuming) const {
    CheckpointOptions opts;
    opts.path = path_;
    opts.every_ms = every_ms_;
    if (resuming) {
      opts.resume_path = path_;
    }
    return opts;
  }

  /// Death-test body: run a one-experiment campaign with ticks armed and
  /// the chaos kill hook set — must die with _Exit(137) at the Nth point.
  /// Point 1 is the engine's start-of-campaign write, then every tick.
  void run_and_die(const ExperimentConfig& cfg, int kill_after) {
    CheckpointOptions opts = options(false);
    opts.kill_after = kill_after;
    CheckpointSession session{opts};
    CampaignEngine engine;
    (void)engine.run({cfg}, {}, &session);
  }

  /// Resumes the campaign from the file the killed child left behind, to
  /// completion, without the tick flags of the killed run.
  std::vector<ExperimentResult> resume_campaign(const std::vector<ExperimentConfig>& configs) {
    CheckpointOptions opts = options(true);
    opts.every_ms = 0.0;
    CheckpointSession session{opts};
    CampaignEngine engine;
    return engine.run(configs, {}, &session);
  }
  ExperimentResult resume(const ExperimentConfig& cfg) {
    return resume_campaign(std::vector<ExperimentConfig>{cfg}).front();
  }

  void expect_kill_resume_identical(const ExperimentConfig& cfg, int kill_after) {
    const ExperimentResult reference = run_experiment(cfg);
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    // The child died mid-run; its last write was the start-of-campaign file.
    const ck::CheckpointFile file = ck::read_checkpoint_file(path_);
    EXPECT_EQ(file.manifest.kind, "campaign");
    EXPECT_EQ(file.manifest.completed, 0u);
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), result_bytes(reference))
        << "resume after kill point " << kill_after << " diverged";
    EXPECT_EQ(resumed.degradation.to_string(), reference.degradation.to_string());
  }

  std::string path_;
  double every_ms_ = 10.0;
};

TEST_F(ResumeTest, KilledAtFirstTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 2);
}

TEST_F(ResumeTest, KilledAtLaterTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 4);
}

TEST_F(ResumeTest, ResumeUnderFaultsReplaysPendingEventsIdentically) {
  // Kill points chosen to land before and after the dropout at t=0.05 and
  // around the capfail retries, so the kill sits behind fired and pending
  // faults alike.
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult reference = run_experiment(cfg);
  ASSERT_FALSE(reference.degradation.empty());
  for (const int kill_after : {2, 5}) {
    std::remove(path_.c_str());
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), result_bytes(reference))
        << "kill point " << kill_after;
    EXPECT_EQ(resumed.degradation.to_string(), reference.degradation.to_string());
    EXPECT_EQ(resumed.fault_counts.dropouts, reference.fault_counts.dropouts);
    EXPECT_EQ(resumed.fault_counts.cap_write_failures,
              reference.fault_counts.cap_write_failures);
  }
}

TEST_F(ResumeTest, ObservedFaultedPotrfResumesFromEveryMarker) {
  // Every kill point before the commit: the start-of-campaign write and
  // each periodic tick.
  const ExperimentConfig cfg = observed_potrf40();
  every_ms_ = 5000.0;
  const ExperimentResult reference = run_experiment(cfg);
  const std::string want_result = result_bytes(reference);
  const std::string want_obs = observability_bytes(reference);
  ASSERT_FALSE(want_obs.empty());
  int points = 0;
  {
    CheckpointSession session{options(false)};
    CampaignEngine engine;
    (void)engine.run({cfg}, {}, &session);
    EXPECT_EQ(session.writes(), 2);
    points = session.points() - 1;
  }
  ASSERT_GE(points, 3);
  for (int kill_after = 1; kill_after <= points; ++kill_after) {
    SCOPED_TRACE("kill point " + std::to_string(kill_after) + " of " + std::to_string(points));
    std::remove(path_.c_str());
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    ASSERT_EQ(ck::read_checkpoint_file(path_).manifest.completed, 0u);
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), want_result);
    EXPECT_EQ(observability_bytes(resumed), want_obs);
  }
}

TEST_F(ResumeTest, TicksWriteNothing) {
  const ExperimentConfig cfg = small_run(false);
  CheckpointSession session{options(false)};
  (void)run_experiment(cfg, &session);
  EXPECT_GT(session.points(), 0);
  EXPECT_EQ(session.writes(), 0);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(ResumeTest, InterruptMidRunWritesTheBoundaryPayloadUnderARunManifest) {
  const std::vector<ExperimentConfig> configs{small_run(false), small_run(true)};
  const std::vector<ExperimentResult> reference = CampaignEngine{}.run(configs);
  std::string boundary_payload;
  {
    CheckpointSession session{options(false)};
    session.commit(configs[0], run_experiment(configs[0], &session));
    boundary_payload = ck::read_checkpoint_file(path_).payload;
    ck::request_interrupt();
    EXPECT_THROW((void)run_experiment(configs[1], &session), ck::InterruptedError);
    ck::clear_interrupt();
  }
  const ck::CheckpointFile file = ck::read_checkpoint_file(path_);
  EXPECT_EQ(file.manifest.kind, "run");
  EXPECT_EQ(file.manifest.reason, "signal");
  EXPECT_EQ(file.manifest.completed, 1u);
  EXPECT_GT(file.manifest.t_virtual_s, 0.0);
  EXPECT_EQ(file.payload, boundary_payload);

  const std::vector<ExperimentResult> resumed = resume_campaign(configs);
  ASSERT_EQ(resumed.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(result_bytes(resumed[i]), result_bytes(reference[i])) << "run " << i;
  }
}

TEST_F(ResumeTest, CapturedExperimentIsReRunOnResume) {
  // A stored result keeps no capture, so a resume re-runs the experiment
  // that captured one: its exports come out again, byte for byte.
  ExperimentConfig captured = small_run(true);
  captured.obs.trace = true;
  captured.obs.metrics = true;
  captured.obs.telemetry_period_ms = 10.0;
  const std::vector<ExperimentConfig> configs{captured, small_run(false)};
  const std::vector<ExperimentResult> reference = CampaignEngine{}.run(configs);
  {
    CheckpointSession session{options(false)};
    (void)CampaignEngine{}.run({configs[0]}, {}, &session);
  }
  CheckpointOptions opts = options(true);
  CheckpointSession session{opts};
  std::vector<std::string> obs(configs.size());
  const std::vector<ExperimentResult> resumed = CampaignEngine{}.run(
      configs, [&](std::size_t i, ExperimentResult& r) { obs[i] = observability_bytes(r); },
      &session);
  EXPECT_EQ(session.writes(), 2);  // the start file and the second run's commit
  EXPECT_FALSE(obs[0].empty());
  EXPECT_EQ(obs[0], observability_bytes(reference[0]));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(result_bytes(resumed[i]), result_bytes(reference[i])) << "run " << i;
  }
}

TEST_F(ResumeTest, CheckpointingItselfDoesNotPerturbTheRun) {
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult plain = run_experiment(cfg);
  CheckpointSession session{options(false)};
  const ExperimentResult checkpointed = run_experiment(cfg, &session);
  EXPECT_EQ(result_bytes(checkpointed), result_bytes(plain));
  EXPECT_GT(session.points(), 0);
}

TEST_F(ResumeTest, CompletedExperimentReplaysFromBoundaryCheckpoint) {
  const ExperimentConfig cfg = small_run(false);
  const ExperimentResult reference = run_experiment(cfg);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  CheckpointOptions opts;
  opts.resume_path = path_;
  CheckpointSession session{opts};
  ASSERT_TRUE(session.next_is_replay());
  auto replayed = session.try_replay(cfg);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(result_bytes(*replayed), result_bytes(reference));
}

TEST_F(ResumeTest, ReplayRejectsADifferentCampaign) {
  const ExperimentConfig cfg = small_run(false);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  ExperimentConfig other = cfg;
  other.seed = 43;
  CheckpointOptions opts;
  opts.resume_path = path_;
  CheckpointSession session{opts};
  EXPECT_THROW((void)session.try_replay(other), ck::CheckpointError);
}

TEST_F(ResumeTest, CorruptResumeFileIsRejectedPrecisely) {
  const ExperimentConfig cfg = small_run(false);
  {
    CheckpointOptions opts;
    opts.path = path_;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }
  const std::string raw = read_bytes(path_);
  // Bit flip.
  std::string bad = raw;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  write_bytes(path_, bad);
  CheckpointOptions opts;
  opts.resume_path = path_;
  EXPECT_THROW(CheckpointSession{opts}, ck::CheckpointError);
  // Truncation.
  write_bytes(path_, raw.substr(0, raw.size() / 2));
  EXPECT_THROW(CheckpointSession{opts}, ck::CheckpointError);
}

TEST_F(ResumeTest, VersionOneFileIsRejected) {
  // A version-1 file held the full run state. Re-label a checkpoint as
  // version 1, with valid CRCs, so only the version check can catch it.
  const ExperimentConfig cfg = small_run(false);
  EXPECT_EXIT(run_and_die(cfg, 2), ::testing::ExitedWithCode(137), "");
  std::string raw = read_bytes(path_);
  const std::uint32_t v1 = 1;
  std::memcpy(raw.data() + 4, &v1, sizeof v1);
  const std::size_t at = raw.find("\"version\":2");
  ASSERT_NE(at, std::string::npos);
  raw[at + 10] = '1';
  const std::uint32_t crc = ck::crc32(raw.data(), raw.size() - 4);
  std::memcpy(raw.data() + raw.size() - 4, &crc, sizeof crc);
  write_bytes(path_, raw);
  try {
    CheckpointSession session{options(true)};
    FAIL() << "a version-1 checkpoint was accepted";
  } catch (const ck::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("version 1"), std::string::npos) << e.what();
  }
}

TEST_F(ResumeTest, MidRunFileFromAnOlderBuildIsRejected) {
  // An older build closed a mid-run file's campaign section with a 1 byte
  // and a run marker. Set that byte in a valid file, CRCs re-computed.
  const ExperimentConfig cfg = small_run(false);
  EXPECT_EXIT(run_and_die(cfg, 1), ::testing::ExitedWithCode(137), "");
  const ck::CheckpointFile file = ck::read_checkpoint_file(path_);
  std::string payload = file.payload;
  ASSERT_EQ(payload.back(), '\0');
  payload.back() = '\1';
  ck::write_checkpoint_file(path_, file.manifest, payload);
  try {
    CheckpointSession session{options(true)};
    FAIL() << "a checkpoint with a run marker was accepted";
  } catch (const ck::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("older build"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace greencap::core
