#include "rapl/rapl.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"

namespace greencap::rapl {
namespace {

class RaplTest : public ::testing::Test {
 protected:
  RaplTest() : platform_{hw::presets::platform_24_intel_2_v100()}, session_{platform_, sim_} {}

  hw::Platform platform_;
  sim::Simulator sim_;
  Session session_;
};

TEST_F(RaplTest, PackageCountMatchesPlatform) {
  EXPECT_EQ(session_.package_count(), 2u);
}

TEST_F(RaplTest, PackageNames) {
  EXPECT_EQ(session_.package(0).name(), "Xeon-Gold-6126");
}

TEST_F(RaplTest, OutOfRangePackageThrows) {
  EXPECT_THROW((void)session_.package(5), std::out_of_range);
}

TEST_F(RaplTest, EnergyCounterInMicrojoules) {
  sim_.at(sim::SimTime::seconds(2.0), [] {});
  sim_.run();
  // 2 s at 30 W uncore = 60 J = 6e7 uJ per package.
  EXPECT_EQ(session_.package(0).energy_uj(), 60000000u);
  EXPECT_EQ(session_.total_energy_uj(), 120000000u);
}

TEST_F(RaplTest, DefaultLimitIsTdp) {
  EXPECT_EQ(session_.package(0).power_limit_uw(), 125000000u);
}

TEST_F(RaplTest, SetLimitApplies) {
  EXPECT_EQ(session_.package(1).set_power_limit_uw(60000000), Result::kOk);
  EXPECT_DOUBLE_EQ(platform_.cpu(1).power_cap(), 60.0);
  EXPECT_EQ(session_.package(1).power_limit_uw(), 60000000u);
}

TEST_F(RaplTest, SetLimitClampsLikePowercapSysfs) {
  session_.package(0).set_power_limit_uw(1);  // absurdly low
  EXPECT_DOUBLE_EQ(platform_.cpu(0).power_cap(), platform_.cpu(0).spec().min_cap_w);
  session_.package(0).set_power_limit_uw(999000000);
  EXPECT_DOUBLE_EQ(platform_.cpu(0).power_cap(), platform_.cpu(0).spec().tdp_w);
}

TEST_F(RaplTest, ConstraintRange) {
  std::uint64_t lo = 0, hi = 0;
  session_.package(0).constraint_range_uw(&lo, &hi);
  EXPECT_EQ(lo, 60000000u);
  EXPECT_EQ(hi, 125000000u);
  // Null pointers are simply skipped.
  session_.package(0).constraint_range_uw(nullptr, nullptr);
}

TEST_F(RaplTest, MeasurementWindowMethodology) {
  // The paper's methodology: read at start and end, subtract.
  const std::uint64_t start = session_.total_energy_uj();
  sim_.at(sim::SimTime::seconds(5.0), [] {});
  sim_.run();
  const std::uint64_t end = session_.total_energy_uj();
  EXPECT_EQ(end - start, 300000000u);  // 2 packages x 30 W x 5 s
}

}  // namespace
}  // namespace greencap::rapl
