#include "power/manager.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"

namespace greencap::power {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : platform_{hw::presets::platform_32_amd_4_a100()}, mgr_{platform_, sim_} {}

  hw::Platform platform_;
  sim::Simulator sim_;
  PowerManager mgr_;
};

TEST_F(ManagerTest, HighAndLowResolveWithoutSweep) {
  EXPECT_DOUBLE_EQ(mgr_.watts_for(0, Level::kHigh), 400.0);
  EXPECT_DOUBLE_EQ(mgr_.watts_for(0, Level::kLow), 100.0);
}

TEST_F(ManagerTest, BestUnresolvedThrows) {
  EXPECT_THROW((void)mgr_.watts_for(0, Level::kBest), std::invalid_argument);
  EXPECT_THROW(mgr_.apply(GpuConfig::parse("BBBB")), std::invalid_argument);
}

TEST_F(ManagerTest, ResolveBestCapsFromSweep) {
  mgr_.resolve_best_caps(hw::Precision::kDouble, 5120);
  const double best = mgr_.watts_for(0, Level::kBest);
  EXPECT_GT(best, 150.0);
  EXPECT_LT(best, 300.0);  // the SXM4 double best sits near 54 % of 400 W
}

TEST_F(ManagerTest, ManualBestOverride) {
  mgr_.set_best_cap_w(2, 216.0);
  EXPECT_DOUBLE_EQ(mgr_.watts_for(2, Level::kBest), 216.0);
}

TEST_F(ManagerTest, ApplySetsDeviceCaps) {
  mgr_.resolve_best_caps(hw::Precision::kDouble, 5120);
  mgr_.apply(GpuConfig::parse("HBLH"));
  EXPECT_DOUBLE_EQ(platform_.gpu(0).power_cap(), 400.0);
  EXPECT_DOUBLE_EQ(platform_.gpu(1).power_cap(), mgr_.watts_for(1, Level::kBest));
  EXPECT_DOUBLE_EQ(platform_.gpu(2).power_cap(), 100.0);
  EXPECT_DOUBLE_EQ(platform_.gpu(3).power_cap(), 400.0);
}

TEST_F(ManagerTest, ApplyRejectsWrongWidth) {
  EXPECT_THROW(mgr_.apply(GpuConfig::parse("HH")), std::invalid_argument);
}

TEST_F(ManagerTest, CpuCapApplies) {
  mgr_.cap_cpu(0, 0.5);
  EXPECT_DOUBLE_EQ(platform_.cpu(0).power_cap(), 100.0);  // 50 % of 200 W
}

TEST_F(ManagerTest, CpuCapValidatesFraction) {
  EXPECT_THROW(mgr_.cap_cpu(0, 0.0), std::invalid_argument);
  EXPECT_THROW(mgr_.cap_cpu(0, 1.5), std::invalid_argument);
}

TEST_F(ManagerTest, ResetRestoresDefaults) {
  mgr_.resolve_best_caps(hw::Precision::kDouble, 5120);
  mgr_.apply(GpuConfig::parse("LLLL"));
  mgr_.cap_cpu(0, 0.5);
  mgr_.reset();
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    EXPECT_DOUBLE_EQ(platform_.gpu(g).power_cap(), platform_.gpu(g).spec().tdp_w);
  }
  EXPECT_DOUBLE_EQ(platform_.cpu(0).power_cap(), 200.0);
}

TEST_F(ManagerTest, PerPrecisionBestCapsDiffer) {
  mgr_.resolve_best_caps(hw::Precision::kDouble, 5120);
  const double best_double = mgr_.watts_for(0, Level::kBest);
  mgr_.resolve_best_caps(hw::Precision::kSingle, 5120);
  const double best_single = mgr_.watts_for(0, Level::kBest);
  // Paper Table I: single 40 % vs double 54 % of TDP on the SXM4.
  EXPECT_LT(best_single, best_double);
}

}  // namespace
}  // namespace greencap::power
