#include "rt/analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "hw/presets.hpp"
#include "la/codelets.hpp"
#include "la/operations.hpp"
#include "la/qr.hpp"
#include "la/tile_matrix.hpp"

namespace greencap::rt {
namespace {

struct Fixture {
  hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim;
  Runtime runtime{platform, sim, RuntimeOptions{}};
  la::Codelets<double> cl;
};

TEST(Analysis, DotContainsNodesAndEdges) {
  Fixture f;
  la::TileMatrix<double> a{24, 8, false};
  a.register_with(f.runtime);
  la::submit_potrf<double>(f.runtime, f.cl, a);
  f.runtime.wait_all();

  std::ostringstream oss;
  write_dot(f.runtime, oss);
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("digraph taskgraph"), std::string::npos);
  EXPECT_NE(dot.find("potrf(0,0)"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Executed tasks carry their worker id.
  EXPECT_NE(dot.find("\\nw"), std::string::npos);
}

TEST(Analysis, DotColoursQrKernelsByClass) {
  Fixture f;
  la::QrCodelets<double> qr;
  la::TileMatrix<double> a{24, 8, false};
  a.register_with(f.runtime);
  la::QrWorkspace<double> workspace{f.runtime, a};
  la::submit_geqrf<double>(f.runtime, qr, a, workspace);

  std::ostringstream oss;
  write_dot(f.runtime, oss);
  const std::string dot = oss.str();
  // Panel (geqrt/tsqrt) and update (unmqr/tsmqr) tasks get their own
  // colours, not the generic grey.
  EXPECT_NE(dot.find("geqrt"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=\"#80b1d3\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=\"#b3de69\""), std::string::npos);
  EXPECT_EQ(dot.find("fillcolor=\"#d9d9d9\""), std::string::npos);
}

TEST(Analysis, ChainCriticalPathIsWholeChain) {
  Fixture f;
  DataHandle* h = f.runtime.register_data(64);
  Codelet noop;
  noop.name = "noop";
  noop.klass = hw::KernelClass::kGemm;
  noop.where = kWhereCuda;
  for (int i = 0; i < 5; ++i) {
    TaskDesc desc;
    desc.codelet = &noop;
    desc.work = hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble, 1e9, 1024};
    desc.accesses = {{h, AccessMode::kReadWrite}};
    f.runtime.submit(std::move(desc));
  }
  f.runtime.wait_all();
  const CriticalPath cp = critical_path(f.runtime);
  EXPECT_EQ(cp.tasks.size(), 5u);
  EXPECT_NEAR(cp.serial_fraction, 1.0, 1e-9);
  // The critical path sums task durations only; the makespan may also
  // contain small inter-task transfer gaps when the chain hops devices.
  EXPECT_LE(cp.length.sec(), f.runtime.stats().makespan.sec() + 1e-12);
  EXPECT_GT(cp.length.sec(), 0.9 * f.runtime.stats().makespan.sec());
}

TEST(Analysis, IndependentTasksHaveUnitPath) {
  Fixture f;
  Codelet noop;
  noop.name = "noop";
  noop.klass = hw::KernelClass::kGemm;
  noop.where = kWhereCuda;
  for (int i = 0; i < 4; ++i) {
    TaskDesc desc;
    desc.codelet = &noop;
    desc.work = hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble, 1e9, 1024};
    f.runtime.submit(std::move(desc));
  }
  f.runtime.wait_all();
  const CriticalPath cp = critical_path(f.runtime);
  EXPECT_EQ(cp.tasks.size(), 1u);
  EXPECT_NEAR(cp.serial_fraction, 0.25, 0.01);
}

TEST(Analysis, CholeskyCriticalPathTraversesPanels) {
  Fixture f;
  la::TileMatrix<double> a{64, 8, false};  // 8x8 tiles
  a.register_with(f.runtime);
  la::submit_potrf<double>(f.runtime, f.cl, a);
  f.runtime.wait_all();
  const CriticalPath cp = critical_path(f.runtime);
  // The Cholesky critical path has 3(nt-1)+1 = 22 tasks for nt = 8.
  EXPECT_GE(cp.tasks.size(), 8u);
  EXPECT_LE(cp.tasks.size(), 22u + 4u);
  EXPECT_GT(cp.length, sim::SimTime::zero());
  EXPECT_LE(cp.length.sec(), f.runtime.stats().makespan.sec() + 1e-9);
}

TEST(Analysis, EmptyRuntimeYieldsEmptyPath) {
  Fixture f;
  const CriticalPath cp = critical_path(f.runtime);
  EXPECT_TRUE(cp.tasks.empty());
  EXPECT_EQ(cp.length, sim::SimTime::zero());
}

}  // namespace
}  // namespace greencap::rt
