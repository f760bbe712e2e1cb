// The headline crash-consistency property, in-process: an experiment
// killed at an arbitrary checkpoint write (the chaos kill hook fires
// _Exit(137) the instant the rename lands, like SIGKILL) and resumed from
// the surviving file produces a byte-identical result — including under
// in-flight fault injection and degradation. A run checkpoint is a marker:
// the resume re-runs the in-flight experiment from its start and checks
// the marker's digest at the marked tick. Kill points are exercised via
// gtest death tests, so the write-then-die happens in a forked child and
// the parent resumes from the file the child left behind.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/file.hpp"
#include "ckpt/signal.hpp"
#include "core/checkpoint_io.hpp"
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

  /// Death-test body: run with checkpointing armed and the chaos kill
  /// hook set — must die with _Exit(137) at the Nth checkpoint write.
  void run_and_die(const ExperimentConfig& cfg, int kill_after) {
    CheckpointOptions opts = options(false);
    opts.kill_after = kill_after;
    CheckpointSession session{opts};
    const ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
  }

  /// Resumes from the file the killed child left behind, to completion.
  ExperimentResult resume(const ExperimentConfig& cfg) {
    CheckpointSession session{options(true)};
    if (auto replayed = session.try_replay(cfg)) {
      return std::move(*replayed);
    }
    ExperimentResult result = run_experiment(cfg, &session);
    session.commit(cfg, result);
    return result;
  }

  void expect_kill_resume_identical(const ExperimentConfig& cfg, int kill_after) {
    const ExperimentResult reference = run_experiment(cfg);
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    // The child died mid-run; its last write must be a valid mid-run file.
    const ck::CheckpointFile file = ck::read_checkpoint_file(path_);
    EXPECT_EQ(file.manifest.kind, "run");
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), result_bytes(reference))
        << "resume after kill point " << kill_after << " diverged";
    EXPECT_EQ(resumed.degradation.to_string(), reference.degradation.to_string());
  }

  /// Offset of the run marker in a run checkpoint's payload.
  static std::size_t marker_at(const std::string& payload) {
    EXPECT_GE(payload.size(), ckpt_io::kRunMarkerBytes);
    const std::size_t at = payload.size() - ckpt_io::kRunMarkerBytes;
    EXPECT_EQ(payload.compare(at, 4, "MARK"), 0);
    return at;
  }

  std::string path_;
  double every_ms_ = 10.0;
};

TEST_F(ResumeTest, KilledAtFirstTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 1);
}

TEST_F(ResumeTest, KilledAtLaterTickResumesByteIdentically) {
  expect_kill_resume_identical(small_run(false), 3);
}

TEST_F(ResumeTest, ResumeUnderFaultsReplaysPendingEventsIdentically) {
  // Kill points chosen to land before and after the dropout at t=0.05 and
  // around the capfail retries, so the marked tick sits behind fired and
  // pending faults alike.
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult reference = run_experiment(cfg);
  ASSERT_FALSE(reference.degradation.empty());
  for (const int kill_after : {1, 4}) {
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
  const ExperimentConfig cfg = observed_potrf40();
  every_ms_ = 5000.0;
  const ExperimentResult reference = run_experiment(cfg);
  const std::string want_result = result_bytes(reference);
  const std::string want_obs = observability_bytes(reference);
  ASSERT_FALSE(want_obs.empty());
  int markers = 0;
  {
    CheckpointSession session{options(false)};
    (void)run_experiment(cfg, &session);
    markers = session.writes();
  }
  ASSERT_GE(markers, 2);
  for (int kill_after = 1; kill_after <= markers; ++kill_after) {
    SCOPED_TRACE("marker " + std::to_string(kill_after) + " of " + std::to_string(markers));
    std::remove(path_.c_str());
    EXPECT_EXIT(run_and_die(cfg, kill_after), ::testing::ExitedWithCode(137), "");
    ASSERT_EQ(ck::read_checkpoint_file(path_).manifest.kind, "run");
    const ExperimentResult resumed = resume(cfg);
    EXPECT_EQ(result_bytes(resumed), want_result);
    EXPECT_EQ(observability_bytes(resumed), want_obs);
  }
}

TEST_F(ResumeTest, CheckpointingItselfDoesNotPerturbTheRun) {
  const ExperimentConfig cfg = small_run(true);
  const ExperimentResult plain = run_experiment(cfg);
  CheckpointSession session{options(false)};
  const ExperimentResult checkpointed = run_experiment(cfg, &session);
  EXPECT_EQ(result_bytes(checkpointed), result_bytes(plain));
  EXPECT_GT(session.writes(), 0);
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
  // A version-1 file held the full run state. Re-label a run checkpoint as
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

TEST_F(ResumeTest, ForgedMarkerDigestFailsTheReplay) {
  // Each case forges one digest field of the marker and re-writes the file
  // through write_checkpoint_file, so both CRCs are valid again and only
  // the replay's check at the marked tick can catch it.
  const ExperimentConfig cfg = small_run(true);
  EXPECT_EXIT(run_and_die(cfg, 3), ::testing::ExitedWithCode(137), "");
  const ck::CheckpointFile original = ck::read_checkpoint_file(path_);
  ASSERT_EQ(original.manifest.kind, "run");
  const std::size_t mark = marker_at(original.payload);

  auto flip_low_bit = [](std::size_t offset) {
    return [offset](std::string& p) { p[offset] = static_cast<char>(p[offset] ^ 0x01); };
  };
  const std::vector<std::pair<const char*, std::function<void(std::string&)>>> cases = {
      {"metered energy", flip_low_bit(mark + 36)},
      {"completed-task count", flip_low_bit(mark + 28)},
      {"runtime RNG state", flip_low_bit(mark + 44)},
  };
  for (const auto& [what, forge] : cases) {
    SCOPED_TRACE(what);
    std::string payload = original.payload;
    forge(payload);
    ck::write_checkpoint_file(path_, original.manifest, {payload});
    try {
      (void)resume(cfg);
      ADD_FAILURE() << "the forged marker was accepted";
    } catch (const ck::CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find(what), std::string::npos) << e.what();
    }
  }
  // The unforged file still resumes.
  ck::write_checkpoint_file(path_, original.manifest, {original.payload});
  EXPECT_EQ(result_bytes(resume(cfg)), result_bytes(run_experiment(cfg)));
}

TEST_F(ResumeTest, InvalidRunStateIsRejectedBeforeTheRunContinues) {
  // Markers that cannot belong to this campaign position or this run.
  const ExperimentConfig cfg = small_run(false);
  EXPECT_EXIT(run_and_die(cfg, 2), ::testing::ExitedWithCode(137), "");
  const ck::CheckpointFile original = ck::read_checkpoint_file(path_);
  ASSERT_EQ(original.manifest.kind, "run");
  const std::size_t mark = marker_at(original.payload);
  auto set_u64 = [](std::size_t offset, std::uint64_t value) {
    return [offset, value](std::string& p) { std::memcpy(p.data() + offset, &value, 8); };
  };

  const std::vector<std::pair<const char*, std::function<void(std::string&)>>> cases = {
      {"marker for another experiment", set_u64(mark + 4, 1)},
      {"marked tick past the end of the run", set_u64(mark + 20, std::uint64_t{1} << 40)},
      {"trailing bytes after the marker", [](std::string& p) { p.push_back('\0'); }},
      {"truncated marker", [](std::string& p) { p.pop_back(); }},
  };
  for (const auto& [what, mutate] : cases) {
    SCOPED_TRACE(what);
    std::string payload = original.payload;
    mutate(payload);
    ck::write_checkpoint_file(path_, original.manifest, {payload});
    EXPECT_THROW((void)resume(cfg), ck::CheckpointError);
  }
  // Resuming a mid-run checkpoint without the ticks that mark it.
  ck::write_checkpoint_file(path_, original.manifest, {original.payload});
  every_ms_ = 0.0;
  EXPECT_THROW((void)resume(cfg), ck::CheckpointError);
  every_ms_ = 10.0;
  // The undamaged file still resumes.
  EXPECT_EQ(result_bytes(resume(cfg)), result_bytes(run_experiment(cfg)));
}

TEST_F(ResumeTest, SignalDuringTheReplayedPrefixKeepsTheResumeFilesMarker) {
  const ExperimentConfig cfg = small_run(false);
  EXPECT_EXIT(run_and_die(cfg, 3), ::testing::ExitedWithCode(137), "");
  const ck::CheckpointFile killed = ck::read_checkpoint_file(path_);
  const std::string marker = killed.payload.substr(marker_at(killed.payload));

  ck::request_interrupt();
  {
    CheckpointSession session{options(true)};
    EXPECT_THROW((void)run_experiment(cfg, &session), ck::InterruptedError);
  }
  ck::clear_interrupt();
  const ck::CheckpointFile interrupted = ck::read_checkpoint_file(path_);
  EXPECT_EQ(interrupted.manifest.kind, "run");
  EXPECT_EQ(interrupted.manifest.reason, "signal");
  EXPECT_EQ(interrupted.payload.substr(marker_at(interrupted.payload)), marker);

  EXPECT_EQ(result_bytes(resume(cfg)), result_bytes(run_experiment(cfg)));
}

}  // namespace
}  // namespace greencap::core
