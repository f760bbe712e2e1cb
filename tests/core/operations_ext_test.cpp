// Experiment-driver coverage for the extension operations (LU, QR).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "la/lq.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"

namespace greencap::core {
namespace {

ExperimentConfig ext_config(Operation op) {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = op;
  cfg.precision = hw::Precision::kDouble;
  cfg.n = 2880L * 10;
  cfg.nb = 2880;
  cfg.gpu_config = power::GpuConfig::parse("HHHH");
  return cfg;
}

class ExtensionOps : public ::testing::TestWithParam<Operation> {};

TEST_P(ExtensionOps, RunsAndProducesConsistentMetrics) {
  const ExperimentResult r = run_experiment(ext_config(GetParam()));
  EXPECT_GT(r.time_s, 0.0);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_GT(r.total_energy_j, 0.0);
  const double flops = operation_flops(GetParam(), static_cast<double>(r.config.n));
  EXPECT_NEAR(r.gflops, flops / r.time_s / 1e9, 1e-6);
}

TEST_P(ExtensionOps, TaskCountMatchesClosedForm) {
  const ExperimentResult r = run_experiment(ext_config(GetParam()));
  const std::int64_t nt = 10;
  // GELQF mirrors GEQRF's count exactly.
  const std::uint64_t want =
      GetParam() == Operation::kGetrf
          ? static_cast<std::uint64_t>(la::getrf_task_count(nt))
          : static_cast<std::uint64_t>(la::geqrf_task_count(nt));
  EXPECT_EQ(r.stats.tasks_completed, want);
}

TEST_P(ExtensionOps, BbbbImprovesEfficiencyHereToo) {
  const ExperimentResult base = run_experiment(ext_config(GetParam()));
  ExperimentConfig cfg = ext_config(GetParam());
  cfg.gpu_config = power::GpuConfig::parse("BBBB");
  const ExperimentResult bbbb = run_experiment(cfg);
  EXPECT_GT(bbbb.efficiency_gain_pct(base), 0.0);
  EXPECT_LT(bbbb.perf_delta_pct(base), 0.0);
}

TEST_P(ExtensionOps, SmallProblemExecutesNumerically) {
  ExperimentConfig cfg = ext_config(GetParam());
  cfg.n = 64;
  cfg.nb = 16;
  cfg.execute_kernels = true;
  EXPECT_NO_THROW(run_experiment(cfg));
}

INSTANTIATE_TEST_SUITE_P(LuQr, ExtensionOps,
                         ::testing::Values(Operation::kGetrf, Operation::kGeqrf, Operation::kGelqf),
                         [](const auto& param_info) {
                           return std::string{to_string(param_info.param)};
                         });

TEST(ExtensionOps, OperationNames) {
  EXPECT_STREQ(to_string(Operation::kGetrf), "GETRF");
  EXPECT_STREQ(to_string(Operation::kGeqrf), "GEQRF");
}

TEST(ExtensionOps, FlopFormulas) {
  EXPECT_NEAR(operation_flops(Operation::kGetrf, 100.0), 2e6 / 3 - 5000 - 100.0 / 6, 1e-9);
  EXPECT_NEAR(operation_flops(Operation::kGeqrf, 100.0), 4e6 / 3, 1e-6);
}

}  // namespace
}  // namespace greencap::core
