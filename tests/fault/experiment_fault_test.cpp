// End-to-end resilience through the experiment driver and the linear
// algebra layer: the ISSUE's acceptance scenarios. A GPU dropping mid-POTRF
// must still produce a correct factorization, an inert fault plan must not
// change a single output bit, and a fixed (seed, spec) pair must replay to
// identical observability artifacts.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "hw/presets.hpp"
#include "la/operations.hpp"
#include "la/verify.hpp"

namespace greencap::core {
namespace {

ExperimentConfig small_gemm() {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kGemm;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 74880;
  cfg.nb = 5760;
  cfg.gpu_config = power::GpuConfig::parse("HHHH");
  return cfg;
}

// -- acceptance: dropout mid-POTRF -------------------------------------------

struct PotrfOutcome {
  double makespan_s = 0.0;
  std::vector<double> factor;
  fault::DegradationReport degradation;
  fault::FaultInjector::Counts counts;
};

constexpr std::int64_t kPotrfN = 128;
constexpr int kPotrfNb = 16;

PotrfOutcome run_potrf(const std::string& faults, const std::string& scheduler = "dmdas") {
  hw::Platform platform{hw::presets::platform_24_intel_2_v100()};
  sim::Simulator sim;
  fault::FaultInjector injector{fault::FaultPlan::parse(faults), 7};
  PotrfOutcome out;
  rt::RuntimeOptions opts;
  opts.scheduler = scheduler;
  opts.execute_kernels = true;
  opts.faults = &injector;
  opts.degradation = &out.degradation;
  rt::Runtime runtime{platform, sim, opts};
  la::Codelets<double> cl;
  la::TileMatrix<double> a{kPotrfN, kPotrfNb};
  sim::Xoshiro256 rng{11};
  a.make_spd(rng);
  a.register_with(runtime);
  injector.arm(sim);
  la::submit_potrf<double>(runtime, cl, a);
  runtime.wait_all();
  out.makespan_s = runtime.stats().makespan.sec();
  out.factor = a.to_dense();
  out.counts = injector.counts();
  return out;
}

/// A plan that drops gpu1 halfway through `clean`'s makespan.
std::string midrun_dropout(const PotrfOutcome& clean) {
  std::ostringstream spec;
  spec << "dropout@gpu1:t=" << clean.makespan_s / 2;
  return spec.str();
}

/// Largest relative error of `factor` against the reference factorization.
double factor_error(const std::vector<double>& factor) {
  la::TileMatrix<double> ref{kPotrfN, kPotrfNb};
  sim::Xoshiro256 rng{11};
  ref.make_spd(rng);
  std::vector<double> want = ref.to_dense();
  la::reference_potrf<double>(kPotrfN, want);
  return la::max_rel_error_lower<double>(kPotrfN, factor, want);
}

TEST(ExperimentFault, GpuDropoutMidPotrfStillFactorizesCorrectly) {
  // Measure a clean makespan first so the dropout can be pinned mid-run.
  const PotrfOutcome clean = run_potrf("dropout@gpu1:t=1e6");  // inert
  ASSERT_GT(clean.makespan_s, 0.0);
  EXPECT_EQ(clean.counts.dropouts, 0u);
  EXPECT_TRUE(clean.degradation.empty());

  const PotrfOutcome faulty = run_potrf(midrun_dropout(clean));
  ASSERT_EQ(faulty.counts.dropouts, 1u) << "dropout must land mid-run";
  ASSERT_FALSE(faulty.degradation.empty());
  EXPECT_EQ(faulty.degradation.events()[0].component, "rt");
  EXPECT_LT(factor_error(faulty.factor), 1e-10);
}

// Placing policies skip the runtime's idle-worker sweep after each
// completion; Runtime::finish_task asserts (in debug builds) that no idle
// worker holds a queued task. A dropout drains a worker's queue and
// requeues its tasks mid-run, the hardest case for that invariant.
class PlacingPolicyDropout : public ::testing::TestWithParam<const char*> {};

TEST_P(PlacingPolicyDropout, GpuDropoutMidPotrfStillFactorizesCorrectly) {
  const PotrfOutcome clean = run_potrf("dropout@gpu1:t=1e6", GetParam());
  const PotrfOutcome faulty = run_potrf(midrun_dropout(clean), GetParam());
  ASSERT_EQ(faulty.counts.dropouts, 1u) << "dropout must land mid-run";
  EXPECT_LT(factor_error(faulty.factor), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(PlacingPolicies, PlacingPolicyDropout,
                         ::testing::Values("dm", "dmda", "dmdas", "dmdae", "random"));

// -- inert plans change nothing ----------------------------------------------

TEST(ExperimentFault, InertFaultPlanLeavesResultsIdentical) {
  const ExperimentResult base = run_experiment(small_gemm());
  ExperimentConfig cfg = small_gemm();
  // A plan whose only event can never fire (capfail window at t=900 on the
  // raw clock), plus changed resilience knobs that stay dormant without a
  // live fault.
  cfg.resilience.faults = "capfail@gpu0:t=900,until=901,perm=1";
  cfg.resilience.fault_seed = 1234;
  cfg.resilience.max_cap_retries = 7;
  const ExperimentResult inert = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(inert.time_s, base.time_s);
  EXPECT_DOUBLE_EQ(inert.gflops, base.gflops);
  EXPECT_DOUBLE_EQ(inert.total_energy_j, base.total_energy_j);
  for (std::size_t g = 0; g < base.energy.gpu_joules.size(); ++g) {
    EXPECT_DOUBLE_EQ(inert.energy.gpu_joules[g], base.energy.gpu_joules[g]) << "gpu" << g;
  }
  EXPECT_EQ(inert.fault_counts.cap_write_failures, 0u);
  EXPECT_TRUE(inert.degradation.empty());
  EXPECT_EQ(inert.energy_counter_resets, 0);
}

// -- deterministic replay -----------------------------------------------------

TEST(ExperimentFault, SameSeedAndSpecReplayToIdenticalArtifacts) {
  const auto run = [] {
    ExperimentConfig cfg = small_gemm();
    cfg.resilience.faults =
        "straggler@gpu0:t=0.5,until=2,factor=3;energyreset@gpu1:t=1;dropout@gpu3:t=1.5";
    cfg.resilience.fault_seed = 99;
    cfg.resilience.reconcile_ms = 50.0;
    cfg.resilience.degrade = true;
    cfg.obs.metrics = true;
    cfg.obs.decision_log = true;
    return run_experiment(cfg);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();

  ASSERT_EQ(a.fault_counts.dropouts, 1u) << "plan must actually fire mid-run";
  ASSERT_EQ(a.fault_counts.energy_resets, 1u);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  ASSERT_NE(a.observability, nullptr);
  ASSERT_NE(b.observability, nullptr);

  std::ostringstream ma, mb, da, db;
  a.observability->metrics.write_json(ma);
  b.observability->metrics.write_json(mb);
  EXPECT_EQ(ma.str(), mb.str());
  a.observability->decisions.write_json(da);
  b.observability->decisions.write_json(db);
  EXPECT_EQ(da.str(), db.str());
}

// -- degradation surfaces in the result ---------------------------------------

TEST(ExperimentFault, UnrecoverableCapWriteDegradesOrFailsTheRun) {
  ExperimentConfig cfg = small_gemm();
  cfg.gpu_config = power::GpuConfig::parse("LLLL");
  cfg.resilience.faults = "capfail@gpu2:perm=1";

  // Without degradation the run must refuse to proceed under a silently
  // wrong configuration: rollback and throw.
  EXPECT_THROW(run_experiment(cfg), std::runtime_error);

  cfg.resilience.degrade = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.fault_counts.cap_write_failures, 0u);
  ASSERT_FALSE(r.degradation.empty());
  EXPECT_EQ(r.degradation.events()[0].component, "power");
  EXPECT_EQ(r.degradation.events()[0].detail, "gpu2");
  // gpu2 ran hot (H instead of L): it must have drawn more energy than a
  // capped sibling.
  EXPECT_GT(r.energy.gpu_joules[2], r.energy.gpu_joules[1]);
}

// -- energy-counter reset reconstruction --------------------------------------

TEST(ExperimentFault, EnergyCounterResetIsReconstructed) {
  const ExperimentResult base = run_experiment(small_gemm());
  ExperimentConfig cfg = small_gemm();
  std::ostringstream spec;
  spec << "energyreset@gpu0:t=" << base.time_s / 2;
  cfg.resilience.faults = spec.str();
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(r.fault_counts.energy_resets, 1u);
  EXPECT_EQ(r.energy_counter_resets, 1);
  // The monotonic tracker folds the reset away: the reported energy must
  // match the clean run to floating-point noise, not lose half the run.
  EXPECT_NEAR(r.energy.gpu_joules[0], base.energy.gpu_joules[0],
              base.energy.gpu_joules[0] * 1e-9);
  EXPECT_NEAR(r.total_energy_j, base.total_energy_j, base.total_energy_j * 1e-9);
}

TEST(ExperimentFault, DescribeMentionsFaultSpec) {
  ExperimentConfig cfg = small_gemm();
  cfg.resilience.faults = "dropout@gpu1:t=2";
  EXPECT_NE(cfg.describe().find("faults=dropout@gpu1:t=2"), std::string::npos);
}

}  // namespace
}  // namespace greencap::core
