#include "rt/perf_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/rng.hpp"

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

TEST(HistoryPerfModel, IdsSurviveInvalidateAndRecordByName) {
  HistoryPerfModel model;
  const CodeletId gemm = model.intern("gemm");
  const CodeletId trsm = model.intern("trsm");
  model.record(trsm, 1, work_of(512), SimTime::seconds(2.0));

  model.invalidate();
  EXPECT_EQ(model.id_of("gemm"), gemm);
  EXPECT_EQ(model.id_of("trsm"), trsm);
  EXPECT_FALSE(model.expected(trsm, 1, work_of(512)).has_value());

  // Recording by name (what a calibration replay does) fills the slots of
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

TEST(HistoryPerfModel, ExpectedAllMatchesExpectedOnRandomHistories) {
  // Random record / invalidate / invalidate_worker sequences over a few
  // codelets, workers, precisions and sizes. After every step, each
  // (codelet, precision, size) query's row must hold exactly the bits of
  // expected() for every worker, NaN exactly where it returns nullopt.
  // Worker 7 is never recorded; size 384 only ever resolves through the
  // regression.
  constexpr int kWorkers = 8;
  const double dims[] = {256.0, 384.0, 512.0, 1024.0};
  const hw::Precision precisions[] = {hw::Precision::kSingle, hw::Precision::kDouble};
  sim::Xoshiro256 rng{2024};
  HistoryPerfModel model;
  const CodeletId codelets[] = {model.intern("gemm"), model.intern("trsm"), model.intern("potrf")};
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform() * static_cast<double>(n)) % n;
  };
  auto query = [&](std::size_t d, std::size_t p) {
    hw::KernelWork work = work_of(dims[d]);
    work.precision = precisions[p];
    return work;
  };

  std::vector<double> row(kWorkers + 2);  // two workers beyond any record
  std::size_t checked = 0;
  std::size_t misses = 0;
  for (int step = 0; step < 3000; ++step) {
    const double action = rng.uniform();
    if (action < 0.005) {
      model.invalidate();
    } else if (action < 0.02) {
      model.invalidate_worker(static_cast<WorkerId>(pick(kWorkers)));
    } else {
      std::size_t d = pick(std::size(dims));
      if (d == 1) d = 2;  // size 384 is never recorded
      const hw::KernelWork work = query(d, pick(std::size(precisions)));
      const auto worker = static_cast<WorkerId>(pick(kWorkers - 1));
      model.record(codelets[pick(std::size(codelets))], worker, work,
                   SimTime::seconds(work.flops * 1e-12 * (0.5 + rng.uniform())));
    }
    for (const CodeletId c : codelets) {
      for (std::size_t d = 0; d < std::size(dims); ++d) {
        for (std::size_t p = 0; p < std::size(precisions); ++p) {
          const hw::KernelWork work = query(d, p);
          model.expected_all(c, work, row);
          for (std::size_t w = 0; w < row.size(); ++w) {
            const auto want = model.expected(c, static_cast<WorkerId>(w), work);
            ++checked;
            if (!want.has_value()) {
              ++misses;
              ASSERT_TRUE(std::isnan(row[w])) << "step " << step << " worker " << w;
              continue;
            }
            const double got_s = row[w];
            const double want_s = want->sec();
            ASSERT_EQ(std::memcmp(&got_s, &want_s, sizeof got_s), 0)
                << "step " << step << " worker " << w << ": " << got_s << " vs " << want_s;
          }
        }
      }
    }
  }
  EXPECT_GT(misses, 0u);
  EXPECT_LT(misses, checked);
  // Unknown codelets answer NaN everywhere.
  model.expected_all(kNoCodelet, work_of(512), row);
  for (const double s : row) {
    EXPECT_TRUE(std::isnan(s));
  }
}

}  // namespace
}  // namespace greencap::rt
