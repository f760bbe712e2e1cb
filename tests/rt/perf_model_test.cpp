#include "rt/perf_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace greencap::rt {
namespace {

using sim::SimTime;

hw::KernelWork work_of(double dim, double flops = 0.0) {
  return hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble,
                        flops > 0 ? flops : 2.0 * dim * dim * dim, dim};
}

TEST(PerfStats, WelfordMeanAndVariance) {
  PerfStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    stats.record(x);
  }
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_DOUBLE_EQ(stats.mean_s, 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 2.5);
}

TEST(PerfStats, SingleSampleHasZeroVariance) {
  PerfStats stats;
  stats.record(7.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(HistoryPerfModel, UnknownReturnsNullopt) {
  HistoryPerfModel model;
  EXPECT_FALSE(model.expected("gemm", 0, work_of(512)).has_value());
  EXPECT_FALSE(model.calibrated("gemm", 0, work_of(512)));
}

TEST(HistoryPerfModel, ExactSizeHit) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(0.5));
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.5));
  const auto t = model.expected("gemm", 0, work_of(512));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 1.0);
  EXPECT_TRUE(model.calibrated("gemm", 0, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerWorker) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_FALSE(model.calibrated("gemm", 1, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerCodelet) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_FALSE(model.calibrated("trsm", 0, work_of(512)));
}

TEST(HistoryPerfModel, KeyedPerPrecision) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  hw::KernelWork single = work_of(512);
  single.precision = hw::Precision::kSingle;
  EXPECT_FALSE(model.calibrated("gemm", 0, single));
}

TEST(HistoryPerfModel, RegressionExtrapolatesUnseenSizes) {
  HistoryPerfModel model;
  // time = 1e-12 * flops exactly.
  for (double dim : {256.0, 512.0, 1024.0}) {
    const double flops = 2.0 * dim * dim * dim;
    model.record("gemm", 0, work_of(dim), SimTime::seconds(flops * 1e-12));
  }
  const hw::KernelWork unseen = work_of(768);
  EXPECT_FALSE(model.calibrated("gemm", 0, unseen));
  const auto t = model.expected("gemm", 0, unseen);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->sec(), unseen.flops * 1e-12, unseen.flops * 1e-12 * 0.05);
}

TEST(HistoryPerfModel, ExactHistoryBeatsRegression) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(256), SimTime::seconds(10.0));  // outlier history point
  model.record("gemm", 0, work_of(1024), SimTime::seconds(1.0));
  const auto t = model.expected("gemm", 0, work_of(256));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->sec(), 10.0);  // history entry wins over the fit
}

TEST(HistoryPerfModel, InvalidateForgetsEverything) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.invalidate();
  EXPECT_FALSE(model.expected("gemm", 0, work_of(512)).has_value());
  EXPECT_EQ(model.entry_count(), 0u);
}

TEST(HistoryPerfModel, EntryCountTracksDistinctKeys) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 1, work_of(512), SimTime::seconds(1.0));
  model.record("trsm", 0, work_of(512), SimTime::seconds(1.0));
  EXPECT_EQ(model.entry_count(), 3u);
}

TEST(HistoryPerfModel, IdAndNameApisAgree) {
  HistoryPerfModel model;
  const CodeletId gemm = model.intern("gemm");
  EXPECT_EQ(model.intern("gemm"), gemm);
  EXPECT_EQ(model.id_of("gemm"), gemm);
  EXPECT_EQ(model.id_of("trsm"), kNoCodelet);
  const CodeletId trsm = model.intern("trsm");
  EXPECT_NE(trsm, gemm);

  model.record(gemm, 0, work_of(512), SimTime::seconds(1.0));
  model.record("trsm", 0, work_of(512), SimTime::seconds(2.0));
  EXPECT_EQ(model.expected("gemm", 0, work_of(512)), model.expected(gemm, 0, work_of(512)));
  EXPECT_EQ(model.expected(trsm, 0, work_of(512)), model.expected("trsm", 0, work_of(512)));
  EXPECT_DOUBLE_EQ(model.expected(trsm, 0, work_of(512))->sec(), 2.0);
  EXPECT_TRUE(model.calibrated(gemm, 0, work_of(512)));
  EXPECT_FALSE(model.calibrated(gemm, 1, work_of(512)));
  EXPECT_FALSE(model.expected(kNoCodelet, 0, work_of(512)).has_value());
  EXPECT_FALSE(model.expected("potrf", 0, work_of(512)).has_value());
}

TEST(HistoryPerfModel, IdsSurviveInvalidateAndImport) {
  HistoryPerfModel model;
  const CodeletId gemm = model.intern("gemm");
  const CodeletId trsm = model.intern("trsm");
  model.record(trsm, 1, work_of(512), SimTime::seconds(2.0));

  model.invalidate();
  EXPECT_EQ(model.id_of("gemm"), gemm);
  EXPECT_EQ(model.id_of("trsm"), trsm);
  EXPECT_FALSE(model.expected(trsm, 1, work_of(512)).has_value());

  // Importing by name (what a calibration replay does) fills the slots of
  // the ids handed out before the invalidation.
  model.record("trsm", 1, work_of(512), SimTime::seconds(2.0));
  EXPECT_EQ(model.id_of("trsm"), trsm);
  EXPECT_DOUBLE_EQ(model.expected(trsm, 1, work_of(512))->sec(), 2.0);
  EXPECT_EQ(model.entry_count(), 1u);
}

TEST(HistoryPerfModel, InvalidateWorkerKeepsOtherWorkers) {
  HistoryPerfModel model;
  model.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 1, work_of(512), SimTime::seconds(2.0));
  model.invalidate_worker(0);
  EXPECT_FALSE(model.expected("gemm", 0, work_of(512)).has_value());
  EXPECT_DOUBLE_EQ(model.expected("gemm", 1, work_of(512))->sec(), 2.0);
  // The regression went with the history: no extrapolation on worker 0.
  EXPECT_FALSE(model.expected("gemm", 0, work_of(1024)).has_value());
  EXPECT_TRUE(model.expected("gemm", 1, work_of(1024)).has_value());
}

}  // namespace
}  // namespace greencap::rt
