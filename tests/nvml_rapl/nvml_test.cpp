#include "nvml/nvml.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "la/flops.hpp"

namespace greencap::nvml {
namespace {

class NvmlTest : public ::testing::Test {
 protected:
  NvmlTest() : platform_{hw::presets::platform_32_amd_4_a100()}, ctx_{platform_, sim_} {}

  hw::Platform platform_;
  sim::Simulator sim_;
  Context ctx_;
};

TEST_F(NvmlTest, DeviceCountMatchesPlatform) {
  EXPECT_EQ(ctx_.device_count(), 4u);
}

TEST_F(NvmlTest, HandleLookup) {
  Device* dev = nullptr;
  EXPECT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(ctx_.device_handle_by_index(9, &dev), Result::kNotFound);
  EXPECT_EQ(ctx_.device_handle_by_index(0, nullptr), Result::kInvalidArgument);
}

TEST_F(NvmlTest, NameMatchesArchetype) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(1, &dev), Result::kSuccess);
  std::string name;
  EXPECT_EQ(dev->name(&name), Result::kSuccess);
  EXPECT_EQ(name, "A100-SXM4-40GB");
}

TEST_F(NvmlTest, LimitsInMilliwatts) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  std::uint32_t mw = 0;
  EXPECT_EQ(dev->power_management_limit(&mw), Result::kSuccess);
  EXPECT_EQ(mw, 400000u);
  std::uint32_t min_mw = 0, max_mw = 0;
  EXPECT_EQ(dev->power_management_limit_constraints(&min_mw, &max_mw), Result::kSuccess);
  EXPECT_EQ(min_mw, 100000u);
  EXPECT_EQ(max_mw, 400000u);
  std::uint32_t def_mw = 0;
  EXPECT_EQ(dev->power_management_default_limit(&def_mw), Result::kSuccess);
  EXPECT_EQ(def_mw, 400000u);
}

TEST_F(NvmlTest, SetLimitAppliesToModel) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(2, &dev), Result::kSuccess);
  EXPECT_EQ(dev->set_power_management_limit(216000), Result::kSuccess);
  EXPECT_DOUBLE_EQ(platform_.gpu(2).power_cap(), 216.0);
}

TEST_F(NvmlTest, SetLimitRejectsOutOfRangeLikeRealNvml) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  EXPECT_EQ(dev->set_power_management_limit(50000), Result::kInvalidArgument);
  EXPECT_EQ(dev->set_power_management_limit(999000), Result::kInvalidArgument);
  EXPECT_DOUBLE_EQ(platform_.gpu(0).power_cap(), 400.0);  // unchanged
}

TEST_F(NvmlTest, EnergyCounterInMillijoules) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  sim_.at(sim::SimTime::seconds(10.0), [] {});
  sim_.run();
  std::uint64_t mj = 0;
  EXPECT_EQ(dev->total_energy_consumption(&mj), Result::kSuccess);
  // 10 s at 55 W idle = 550 J = 550000 mJ.
  EXPECT_EQ(mj, 550000u);
}

TEST_F(NvmlTest, PowerUsageReflectsKernelState) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  std::uint32_t mw = 0;
  EXPECT_EQ(dev->power_usage(&mw), Result::kSuccess);
  EXPECT_EQ(mw, 55000u);  // idle
  const hw::KernelWork work{hw::KernelClass::kGemm, hw::Precision::kDouble,
                            la::flops::gemm(5120), 5120};
  platform_.gpu(0).begin_kernel(work, sim_.now());
  EXPECT_EQ(dev->power_usage(&mw), Result::kSuccess);
  EXPECT_GT(mw, 300000u);
}

TEST_F(NvmlTest, NullOutputPointersRejected) {
  Device* dev = nullptr;
  ASSERT_EQ(ctx_.device_handle_by_index(0, &dev), Result::kSuccess);
  EXPECT_EQ(dev->name(nullptr), Result::kInvalidArgument);
  EXPECT_EQ(dev->power_management_limit(nullptr), Result::kInvalidArgument);
  EXPECT_EQ(dev->total_energy_consumption(nullptr), Result::kInvalidArgument);
  EXPECT_EQ(dev->power_usage(nullptr), Result::kInvalidArgument);
}

TEST(NvmlErrors, ErrorStrings) {
  EXPECT_STREQ(error_string(Result::kSuccess), "Success");
  EXPECT_STREQ(error_string(Result::kInvalidArgument), "Invalid argument");
  EXPECT_STREQ(error_string(Result::kNotFound), "Not found");
}

}  // namespace
}  // namespace greencap::nvml
