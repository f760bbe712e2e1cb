#include "hw/platform.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"

namespace greencap::hw {
namespace {

using sim::SimTime;

TEST(Platform, PresetCompositionMatchesPaper) {
  Platform v100{presets::platform_24_intel_2_v100()};
  EXPECT_EQ(v100.cpu_count(), 2u);
  EXPECT_EQ(v100.gpu_count(), 2u);
  EXPECT_EQ(v100.total_cores(), 24);

  Platform amd2{presets::platform_64_amd_2_a100()};
  EXPECT_EQ(amd2.cpu_count(), 2u);
  EXPECT_EQ(amd2.gpu_count(), 2u);
  EXPECT_EQ(amd2.total_cores(), 64);

  Platform amd4{presets::platform_32_amd_4_a100()};
  EXPECT_EQ(amd4.cpu_count(), 1u);
  EXPECT_EQ(amd4.gpu_count(), 4u);
  EXPECT_EQ(amd4.total_cores(), 32);
}

TEST(Platform, RejectsEmptySpec) {
  PlatformSpec empty;
  empty.name = "empty";
  EXPECT_THROW(Platform{std::move(empty)}, std::invalid_argument);
}

TEST(Platform, LookupByNameThrowsOnUnknown) {
  EXPECT_THROW(presets::platform_by_name("no-such-node"), std::invalid_argument);
  EXPECT_THROW(presets::gpu_by_name("H100"), std::invalid_argument);
}

TEST(Platform, LookupByNameRoundTrips) {
  for (const char* name : {"24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100"}) {
    EXPECT_EQ(presets::platform_by_name(name).name, name);
  }
}

TEST(Platform, EnergyReadingShapes) {
  Platform p{presets::platform_32_amd_4_a100()};
  const EnergyReading r = p.read_energy(SimTime::zero());
  EXPECT_EQ(r.cpu_joules.size(), 1u);
  EXPECT_EQ(r.gpu_joules.size(), 4u);
  EXPECT_DOUBLE_EQ(r.total(), 0.0);
}

TEST(Platform, IdleEnergyAccrues) {
  Platform p{presets::platform_24_intel_2_v100()};
  const EnergyReading r = p.read_energy(SimTime::seconds(10.0));
  // 2 CPUs at uncore 30 W + 2 GPUs at idle 40 W for 10 s.
  EXPECT_NEAR(r.cpu_total(), 600.0, 1e-6);
  EXPECT_NEAR(r.gpu_total(), 800.0, 1e-6);
  EXPECT_NEAR(r.total(), 1400.0, 1e-6);
}

TEST(Platform, ReadingDifferenceIsWindowed) {
  Platform p{presets::platform_24_intel_2_v100()};
  const EnergyReading start = p.read_energy(SimTime::seconds(5.0));
  const EnergyReading end = p.read_energy(SimTime::seconds(15.0));
  const EnergyReading window = end - start;
  EXPECT_NEAR(window.total(), 1400.0, 1e-6);
}

TEST(Platform, ResetEnergyZeroesCounters) {
  Platform p{presets::platform_24_intel_2_v100()};
  EXPECT_GT(p.read_energy(SimTime::seconds(10.0)).total(), 0.0);
  p.reset_energy(SimTime::seconds(10.0));
  EXPECT_DOUBLE_EQ(p.read_energy(SimTime::seconds(10.0)).total(), 0.0);
}

TEST(Platform, ResetPowerCapsRestoresDefaults) {
  Platform p{presets::platform_24_intel_2_v100()};
  p.gpu(0).set_power_cap(120.0, SimTime::zero());
  p.cpu(1).set_power_cap(70.0, SimTime::zero());
  p.reset_power_caps(SimTime::zero());
  EXPECT_DOUBLE_EQ(p.gpu(0).power_cap(), p.gpu(0).spec().tdp_w);
  EXPECT_DOUBLE_EQ(p.cpu(1).power_cap(), p.cpu(1).spec().tdp_w);
}

TEST(Platform, DeviceIdToString) {
  EXPECT_EQ((DeviceId{DeviceKind::kCpu, 0}).to_string(), "cpu0");
  EXPECT_EQ((DeviceId{DeviceKind::kGpu, 3}).to_string(), "gpu3");
}

TEST(Platform, GpuLinksExistPerGpu) {
  Platform p{presets::platform_32_amd_4_a100()};
  for (std::size_t g = 0; g < p.gpu_count(); ++g) {
    EXPECT_GT(p.gpu_link(g).spec().bandwidth_gbps, 0.0);
  }
}

TEST(LinkModel, HockneyTransferTime) {
  LinkModel link{LinkSpec{"test", 10.0, 5.0}};  // 10 GB/s, 5 us
  // 1 GB at 10 GB/s = 0.1 s + 5 us latency.
  EXPECT_NEAR(link.transfer_time(1'000'000'000).sec(), 0.100005, 1e-9);
  EXPECT_NEAR(link.transfer_time(0).sec(), 5e-6, 1e-12);
}

}  // namespace
}  // namespace greencap::hw
