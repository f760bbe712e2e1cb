#include "hw/gpu_model.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "la/flops.hpp"

namespace greencap::hw {
namespace {

using sim::SimTime;

KernelWork big_gemm(Precision p, double dim = 5120) {
  return KernelWork{KernelClass::kGemm, p, la::flops::gemm(dim), dim};
}

TEST(GpuModel, ConstructorValidatesSpec) {
  GpuArchSpec bad = presets::a100_sxm4();
  bad.min_cap_w = 500.0;  // above TDP
  EXPECT_THROW(GpuModel(bad, 0), std::invalid_argument);
  bad = presets::a100_sxm4();
  bad.idle_w = 150.0;  // above min cap
  EXPECT_THROW(GpuModel(bad, 0), std::invalid_argument);
}

TEST(GpuModel, CapDefaultsToTdp) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_DOUBLE_EQ(gpu.power_cap(), 400.0);
}

TEST(GpuModel, SetCapClamps) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_DOUBLE_EQ(gpu.set_power_cap(50.0, SimTime::zero()), 100.0);
  EXPECT_DOUBLE_EQ(gpu.set_power_cap(900.0, SimTime::zero()), 400.0);
  EXPECT_DOUBLE_EQ(gpu.set_power_cap(250.0, SimTime::zero()), 250.0);
}

TEST(GpuModel, UtilizationSaturatesWithSize) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_LT(gpu.utilization(256), gpu.utilization(1024));
  EXPECT_LT(gpu.utilization(1024), gpu.utilization(5120));
  EXPECT_LE(gpu.utilization(100000), 1.0);
  EXPECT_GT(gpu.utilization(5120), 0.95);
}

TEST(GpuModel, UnspecifiedDimAssumesSaturation) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_DOUBLE_EQ(gpu.utilization(0), 1.0);
  EXPECT_DOUBLE_EQ(gpu.utilization(-5), 1.0);
}

TEST(GpuModel, FullClockWhenUncapped) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  // Natural draw of the double GEMM is below 400 W on the SXM4 archetype.
  EXPECT_NEAR(gpu.clock_ratio(big_gemm(Precision::kDouble)), 1.0, 1e-9);
}

TEST(GpuModel, ThrottlesUnderCap) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  gpu.set_power_cap(216.0, SimTime::zero());
  const double r = gpu.clock_ratio(big_gemm(Precision::kDouble));
  EXPECT_LT(r, 1.0);
  EXPECT_GT(r, 0.5);
}

TEST(GpuModel, ExecutionTimeMonotoneInCap) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  const KernelWork work = big_gemm(Precision::kDouble);
  double prev_time = 0.0;
  for (double cap = 400.0; cap >= 100.0; cap -= 25.0) {
    gpu.set_power_cap(cap, SimTime::zero());
    const double t = gpu.execution_time(work).sec();
    EXPECT_GE(t, prev_time) << "cap=" << cap;
    prev_time = t;
  }
}

TEST(GpuModel, PowerNeverExceedsCap) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  for (double cap = 100.0; cap <= 400.0; cap += 10.0) {
    gpu.set_power_cap(cap, SimTime::zero());
    for (double dim : {512.0, 2048.0, 5120.0}) {
      KernelWork work = big_gemm(Precision::kDouble, dim);
      EXPECT_LE(gpu.power_during(work), cap + 1e-9) << "cap=" << cap << " dim=" << dim;
    }
  }
}

TEST(GpuModel, SmallKernelsDrawLessPower) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_LT(gpu.power_during(big_gemm(Precision::kDouble, 512)),
            gpu.power_during(big_gemm(Precision::kDouble, 5120)));
}

TEST(GpuModel, RateScalesWithKernelClassFactors) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  KernelWork gemm = big_gemm(Precision::kDouble);
  KernelWork potrf = gemm;
  potrf.klass = KernelClass::kPotrf;
  EXPECT_GT(gpu.rate_gflops(gemm), 10.0 * gpu.rate_gflops(potrf));
}

TEST(GpuModel, ZeroFlopKernelTakesNoTime) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  KernelWork work = big_gemm(Precision::kDouble);
  work.flops = 0.0;
  EXPECT_EQ(gpu.execution_time(work), SimTime::zero());
}

TEST(GpuModel, EnergyAccountsIdleAndBusy) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  const KernelWork work = big_gemm(Precision::kDouble);
  const double busy_power = gpu.power_during(work);
  gpu.begin_kernel(work, SimTime::zero());
  gpu.end_kernel(SimTime::seconds(2.0));
  gpu.advance(SimTime::seconds(3.0));
  const double expected = busy_power * 2.0 + gpu.spec().idle_w * 1.0;
  EXPECT_NEAR(gpu.energy_joules(), expected, 1e-6);
}

TEST(GpuModel, BusyFlagTransitions) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  EXPECT_FALSE(gpu.busy());
  gpu.begin_kernel(big_gemm(Precision::kDouble), SimTime::zero());
  EXPECT_TRUE(gpu.busy());
  gpu.end_kernel(SimTime::seconds(1.0));
  EXPECT_FALSE(gpu.busy());
}

TEST(GpuModel, ResetEnergyZeroes) {
  GpuModel gpu{presets::a100_sxm4(), 0};
  gpu.advance(SimTime::seconds(10.0));
  EXPECT_GT(gpu.energy_joules(), 0.0);
  gpu.reset_energy(SimTime::seconds(10.0));
  EXPECT_DOUBLE_EQ(gpu.energy_joules(), 0.0);
}

// -- property sweep over every archetype/precision ---------------------------

struct ArchCase {
  const char* name;
  Precision precision;
  double dim;
};

class GpuModelProperty : public ::testing::TestWithParam<ArchCase> {};

TEST_P(GpuModelProperty, EfficiencyPeaksStrictlyBelowTdp) {
  const auto& param = GetParam();
  GpuModel gpu{presets::gpu_by_name(param.name), 0};
  const KernelWork work{KernelClass::kGemm, param.precision, la::flops::gemm(param.dim),
                        param.dim};
  double best_eff = 0.0, best_cap = 0.0, tdp_eff = 0.0;
  const auto& spec = gpu.spec();
  for (double cap = spec.min_cap_w; cap <= spec.tdp_w; cap += 1.0) {
    gpu.set_power_cap(cap, SimTime::zero());
    const double t = gpu.execution_time(work).sec();
    const double eff = work.flops / (gpu.power_during(work) * t);
    if (eff > best_eff) {
      best_eff = eff;
      best_cap = cap;
    }
    if (cap == spec.tdp_w) tdp_eff = eff;
  }
  EXPECT_LT(best_cap, spec.tdp_w);
  EXPECT_GT(best_eff, tdp_eff * 1.05);  // at least 5 % better than default
}

TEST_P(GpuModelProperty, PerformanceMonotoneInCap) {
  const auto& param = GetParam();
  GpuModel gpu{presets::gpu_by_name(param.name), 0};
  const KernelWork work{KernelClass::kGemm, param.precision, la::flops::gemm(param.dim),
                        param.dim};
  double prev_rate = 0.0;
  const auto& spec = gpu.spec();
  for (double cap = spec.min_cap_w; cap <= spec.tdp_w; cap += 5.0) {
    gpu.set_power_cap(cap, SimTime::zero());
    const double rate = gpu.rate_gflops(work);
    EXPECT_GE(rate, prev_rate - 1e-9) << "cap=" << cap;
    prev_rate = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchetypes, GpuModelProperty,
    ::testing::Values(ArchCase{"A100-SXM4-40GB", Precision::kDouble, 5120},
                      ArchCase{"A100-SXM4-40GB", Precision::kSingle, 5120},
                      ArchCase{"A100-PCIE-40GB", Precision::kDouble, 5760},
                      ArchCase{"A100-PCIE-40GB", Precision::kSingle, 5760},
                      ArchCase{"V100-PCIE-32GB", Precision::kDouble, 5120},
                      ArchCase{"V100-PCIE-32GB", Precision::kSingle, 5120}),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + to_string(param_info.param.precision);
    });

}  // namespace
}  // namespace greencap::hw
