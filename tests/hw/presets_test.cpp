#include "hw/presets.hpp"

#include <gtest/gtest.h>

namespace greencap::hw {
namespace {

class GpuSpecSanity : public ::testing::TestWithParam<const char*> {};

TEST_P(GpuSpecSanity, LimitsWellOrdered) {
  const GpuArchSpec spec = presets::gpu_by_name(GetParam());
  EXPECT_GT(spec.idle_w, 0.0);
  EXPECT_LT(spec.idle_w, spec.min_cap_w);
  EXPECT_LT(spec.min_cap_w, spec.tdp_w);
}

TEST_P(GpuSpecSanity, ProfilesPopulated) {
  const GpuArchSpec spec = presets::gpu_by_name(GetParam());
  for (const GpuPrecisionProfile* prof : {&spec.single, &spec.fp64}) {
    EXPECT_GT(prof->peak_gflops, 1000.0);
    EXPECT_GT(prof->kernel_power_w, spec.idle_w);
    EXPECT_GE(prof->perf_exponent, 1.0);
    EXPECT_LE(prof->perf_exponent, 2.0);
    EXPECT_GT(prof->v_floor, 0.5);
    EXPECT_LT(prof->v_floor, 1.0);
  }
}

TEST_P(GpuSpecSanity, KernelDrawBelowOrNearTdp) {
  const GpuArchSpec spec = presets::gpu_by_name(GetParam());
  // The natural kernel draw may exceed the TDP slightly (the firmware then
  // throttles at default limits) but not wildly.
  EXPECT_LT(spec.fp64.kernel_power_w, spec.tdp_w * 1.1);
  EXPECT_LT(spec.single.kernel_power_w, spec.tdp_w * 1.1);
}

INSTANTIATE_TEST_SUITE_P(AllGpus, GpuSpecSanity,
                         ::testing::Values("V100-PCIE-32GB", "A100-PCIE-40GB",
                                           "A100-SXM4-40GB", "H100-SXM5"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(GpuPresets, H100ProjectionIsFlagged) {
  const GpuArchSpec spec = presets::h100_sxm5_projection();
  // The name itself warns users this archetype is extrapolated, not
  // calibrated (the paper had no H100 access).
  EXPECT_NE(spec.name.find("projection"), std::string::npos);
  EXPECT_DOUBLE_EQ(spec.tdp_w, 700.0);
  EXPECT_EQ(presets::gpu_by_name("h100").name, spec.name);
}

TEST(GpuPresets, PaperPowerLimits) {
  EXPECT_DOUBLE_EQ(presets::v100_pcie().tdp_w, 250.0);
  EXPECT_DOUBLE_EQ(presets::v100_pcie().min_cap_w, 100.0);
  EXPECT_DOUBLE_EQ(presets::a100_pcie().tdp_w, 250.0);
  EXPECT_DOUBLE_EQ(presets::a100_pcie().min_cap_w, 150.0);
  EXPECT_DOUBLE_EQ(presets::a100_sxm4().tdp_w, 400.0);
  EXPECT_DOUBLE_EQ(presets::a100_sxm4().min_cap_w, 100.0);
}

TEST(GpuPresets, AliasLookups) {
  EXPECT_EQ(presets::gpu_by_name("v100").name, "V100-PCIE-32GB");
  EXPECT_EQ(presets::gpu_by_name("A100-SXM4").name, "A100-SXM4-40GB");
  EXPECT_EQ(presets::gpu_by_name("a100-pcie").name, "A100-PCIE-40GB");
}

TEST(CpuPresets, PaperCoreCounts) {
  EXPECT_EQ(presets::xeon_gold_6126().cores, 12);
  EXPECT_EQ(presets::epyc_7452().cores, 32);
  EXPECT_EQ(presets::epyc_7513().cores, 32);
}

TEST(CpuPresets, PowerBudgetsConsistent) {
  for (const CpuArchSpec& spec :
       {presets::xeon_gold_6126(), presets::epyc_7452(), presets::epyc_7513()}) {
    EXPECT_LT(spec.uncore_w, spec.min_cap_w);
    EXPECT_LT(spec.min_cap_w, spec.tdp_w);
    // Uncore + all cores at full dynamic power lands on the TDP.
    EXPECT_NEAR(spec.uncore_w + spec.cores * spec.core_dyn_w, spec.tdp_w, 0.5);
    EXPECT_GT(spec.core_gflops_double, 0.0);
    EXPECT_GT(spec.core_gflops_single, spec.core_gflops_double);
  }
}

TEST(CpuPresets, XeonSupportsThePaperCpuCap) {
  // The paper caps the second Xeon to 48 % of TDP (60 W) and reports
  // instability below; the preset must allow exactly that point.
  const CpuArchSpec spec = presets::xeon_gold_6126();
  EXPECT_LE(spec.min_cap_w, 0.48 * spec.tdp_w + 1e-9);
}

}  // namespace
}  // namespace greencap::hw
