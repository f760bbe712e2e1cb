#include "rt/perf_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/serial.hpp"

namespace greencap::rt {
namespace {

using sim::SimTime;

/// Worker count the coder checks decoded entries against.
constexpr WorkerId kWorkers = 4;

std::string encode(const HistoryPerfModel& model) {
  ckpt::Writer w;
  HistoryPerfModel::io(w, model, std::size_t{kWorkers});
  return w.take();
}

void decode(const std::string& bytes, HistoryPerfModel& model) {
  ckpt::Reader r{bytes};
  HistoryPerfModel::io(r, model, std::size_t{kWorkers});
  EXPECT_TRUE(r.at_end());
}

/// One history entry and one regression entry for `gemm` under the given
/// key, laid out as HistoryPerfModel::io writes them.
std::string entry_bytes(WorkerId worker, std::uint8_t precision) {
  ckpt::Writer w;
  w.u64(1);
  w.str("gemm");
  w.i32(worker);
  w.u8(precision);
  w.i64(512);
  w.u64(1);
  w.f64(1.0);
  w.f64(0.0);
  w.u64(1);
  w.str("gemm");
  w.i32(worker);
  w.u8(precision);
  w.f64(1.0);
  w.f64(1.0);
  w.u64(1);
  return w.take();
}

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

TEST(HistoryPerfModel, BytesAreSortedByNameWorkerPrecisionSize) {
  // Record in an order that differs from the sorted one on every key
  // component; checkpoints rely on the sorted layout.
  HistoryPerfModel model;
  hw::KernelWork single = work_of(512);
  single.precision = hw::Precision::kSingle;
  model.record("trsm", 1, work_of(512), SimTime::seconds(1.0));
  model.record("gemm", 1, work_of(1024), SimTime::seconds(2.0));
  model.record("gemm", 1, work_of(512), SimTime::seconds(3.0));
  model.record("gemm", 0, work_of(512), SimTime::seconds(4.0));
  model.record("gemm", 1, single, SimTime::seconds(5.0));
  model.record("geqrt", 2, work_of(512), SimTime::seconds(6.0));

  const std::string bytes = encode(model);
  ckpt::Reader r{bytes};
  ASSERT_EQ(r.u64(), 6u);
  const std::vector<std::tuple<std::string, WorkerId, std::uint8_t, std::int64_t, double>> history{
      {"gemm", 0, 1, 512, 4.0},  {"gemm", 1, 0, 512, 5.0},  {"gemm", 1, 1, 512, 3.0},
      {"gemm", 1, 1, 1024, 2.0}, {"geqrt", 2, 1, 512, 6.0}, {"trsm", 1, 1, 512, 1.0}};
  for (std::size_t i = 0; i < history.size(); ++i) {
    const std::string codelet = r.str();
    const WorkerId worker = r.i32();
    const std::uint8_t precision = r.u8();
    const std::int64_t size = r.i64();
    EXPECT_EQ(r.u64(), 1u) << "entry " << i;  // samples
    const double mean_s = r.f64();
    (void)r.f64();  // m2
    EXPECT_EQ(std::tie(codelet, worker, precision, size, mean_s), history[i]) << "entry " << i;
  }

  ASSERT_EQ(r.u64(), 5u);
  const std::vector<std::tuple<std::string, WorkerId, std::uint8_t, std::uint64_t>> regression{
      {"gemm", 0, 1, 1}, {"gemm", 1, 0, 1}, {"gemm", 1, 1, 2}, {"geqrt", 2, 1, 1}, {"trsm", 1, 1, 1}};
  for (std::size_t i = 0; i < regression.size(); ++i) {
    const std::string codelet = r.str();
    const WorkerId worker = r.i32();
    const std::uint8_t precision = r.u8();
    (void)r.f64();  // sum_xt
    (void)r.f64();  // sum_xx
    const std::uint64_t samples = r.u64();
    EXPECT_EQ(std::tie(codelet, worker, precision, samples), regression[i]) << "entry " << i;
  }
  EXPECT_TRUE(r.at_end());
}

TEST(HistoryPerfModel, BytesDoNotDependOnRecordingOrder) {
  // The same samples per key, interleaved across keys in two orders.
  HistoryPerfModel a;
  a.record("trsm", 1, work_of(512), SimTime::seconds(1.0));
  a.record("gemm", 0, work_of(1024), SimTime::seconds(2.0));
  a.record("gemm", 0, work_of(512), SimTime::seconds(3.0));
  a.record("gemm", 0, work_of(512), SimTime::seconds(3.5));
  HistoryPerfModel b;
  b.intern("gemm");  // different codelet ids, too
  b.record("gemm", 0, work_of(512), SimTime::seconds(3.0));
  b.record("gemm", 0, work_of(1024), SimTime::seconds(2.0));
  b.record("trsm", 1, work_of(512), SimTime::seconds(1.0));
  b.record("gemm", 0, work_of(512), SimTime::seconds(3.5));
  EXPECT_EQ(encode(a), encode(b));
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
  const std::string bytes = encode(model);

  model.invalidate();
  EXPECT_EQ(model.id_of("gemm"), gemm);
  EXPECT_EQ(model.id_of("trsm"), trsm);
  EXPECT_FALSE(model.expected(trsm, 1, work_of(512)).has_value());

  decode(bytes, model);
  EXPECT_EQ(model.id_of("gemm"), gemm);
  EXPECT_EQ(model.id_of("trsm"), trsm);
  EXPECT_DOUBLE_EQ(model.expected(trsm, 1, work_of(512))->sec(), 2.0);
  EXPECT_EQ(model.entry_count(), 1u);
  EXPECT_EQ(encode(model), bytes);

  // Decoding into a fresh model interns the checkpointed names.
  HistoryPerfModel restored;
  decode(bytes, restored);
  EXPECT_NE(restored.id_of("trsm"), kNoCodelet);
  EXPECT_DOUBLE_EQ(restored.expected("trsm", 1, work_of(512))->sec(), 2.0);
  EXPECT_EQ(encode(restored), bytes);
}

TEST(HistoryPerfModel, DecodeReplacesEverything) {
  HistoryPerfModel source;
  source.record("gemm", 0, work_of(512), SimTime::seconds(1.0));
  HistoryPerfModel model;
  model.record("trsm", 1, work_of(512), SimTime::seconds(2.0));
  decode(encode(source), model);
  EXPECT_FALSE(model.expected("trsm", 1, work_of(1024)).has_value());
  EXPECT_DOUBLE_EQ(model.expected("gemm", 0, work_of(512))->sec(), 1.0);
}

TEST(HistoryPerfModel, DecodeAcceptsTheLastWorkerAndPrecision) {
  HistoryPerfModel model;
  decode(entry_bytes(kWorkers - 1, 1), model);
  EXPECT_EQ(model.entry_count(), 1u);
  EXPECT_DOUBLE_EQ(model.expected("gemm", kWorkers - 1, work_of(512))->sec(), 1.0);
}

TEST(HistoryPerfModel, DecodeRejectsNegativeWorker) {
  HistoryPerfModel model;
  EXPECT_THROW(decode(entry_bytes(-1, 1), model), ckpt::CheckpointError);
}

TEST(HistoryPerfModel, DecodeRejectsWorkerBeyondTheRun) {
  // 0x7fffffff used to pass the check and size a slot vector from it.
  HistoryPerfModel model;
  EXPECT_THROW(decode(entry_bytes(kWorkers, 1), model), ckpt::CheckpointError);
  EXPECT_THROW(decode(entry_bytes(0x7fffffff, 1), model), ckpt::CheckpointError);
}

TEST(HistoryPerfModel, DecodeRejectsUnknownPrecision) {
  HistoryPerfModel model;
  EXPECT_THROW(decode(entry_bytes(0, 2), model), ckpt::CheckpointError);
  EXPECT_THROW(decode(entry_bytes(0, 255), model), ckpt::CheckpointError);
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
