// Unit tests of the benchmark's own helpers: the tail-percentile rule, the
// seeded query stream, the bitwise digest comparator and span self times.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheMedian) {
  EXPECT_FALSE(tail_percentile(one_to(0)).has_value());
  EXPECT_FALSE(tail_percentile(one_to(19)).has_value());
  const std::optional<Tail> t = tail_percentile(one_to(20));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 50.0);
  EXPECT_EQ(t->samples, 20u);
  EXPECT_DOUBLE_EQ(t->beyond, 10.0);
  EXPECT_DOUBLE_EQ(t->value, 10.5);
}

TEST(TailPercentile, ClimbsOnlyWithTenSamplesBeyond) {
  const std::pair<std::size_t, double> cases[] = {
      {99, 50.0},   {100, 90.0},   {999, 90.0},    {1000, 99.0},
      {9999, 99.0}, {10000, 99.9}, {200000, 99.9},
  };
  for (const auto& [n, expected] : cases) {
    const std::optional<Tail> t = tail_percentile(one_to(n));
    ASSERT_TRUE(t.has_value()) << n;
    EXPECT_EQ(t->percentile, expected) << n;
    EXPECT_GE(t->beyond, 10.0 - 1e-9) << n;
  }
}

TEST(TailPercentile, InterpolatesLikeInclusiveQuantiles) {
  // Python: statistics.quantiles(range(1, 101), n=10, method="inclusive")[-1]
  const std::optional<Tail> t = tail_percentile(one_to(100));
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->value, 90.1, 1e-12);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(AdvisorStream, SameSeedSameStream) {
  const auto a = advisor_stream(7);
  const auto b = advisor_stream(7);
  const auto c = advisor_stream(8);
  ASSERT_EQ(a.size(), 2000u);
  ASSERT_EQ(b.size(), a.size());
  ASSERT_EQ(c.size(), a.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].describe(), b[i].describe()) << i;
    differ += a[i].describe() != c[i].describe() ? 1 : 0;
  }
  EXPECT_GT(differ, a.size() / 2);
}

TEST(AdvisorStream, QueriesRecurAndStaySmall) {
  const auto stream = advisor_stream(1);
  std::set<std::string> distinct;
  for (const auto& cfg : stream) {
    distinct.insert(cfg.describe());
    ASSERT_EQ(cfg.n % cfg.nb, 0);
    EXPECT_GE(cfg.n / cfg.nb, 4);
    EXPECT_LE(cfg.n / cfg.nb, 10);
  }
  EXPECT_LT(distinct.size(), stream.size() / 2);
}

TEST(Shuffle, IsASeededPermutation) {
  std::vector<int> sorted(50);
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<int> a = sorted;
  std::vector<int> b = sorted;
  std::vector<int> c = sorted;
  shuffle(a, 3);
  shuffle(b, 3);
  shuffle(c, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::sort(c.begin(), c.end());
  EXPECT_EQ(c, sorted);
}

TEST(Digest, CatchesOneUlpChanges) {
  const RunDigest d{12.5, 3456.75, 11480, 9000};
  EXPECT_TRUE(same_bits(d, d));
  RunDigest time = d;
  time.time_s = std::nextafter(d.time_s, INFINITY);
  EXPECT_FALSE(same_bits(d, time));
  RunDigest energy = d;
  energy.total_energy_j = std::nextafter(d.total_energy_j, 0.0);
  EXPECT_FALSE(same_bits(d, energy));
  RunDigest gpu = d;
  ++gpu.gpu_tasks;
  EXPECT_FALSE(same_bits(d, gpu));
  RunDigest zero = d;
  zero.time_s = 0.0;
  RunDigest negative_zero = d;
  negative_zero.time_s = -0.0;
  EXPECT_FALSE(same_bits(zero, negative_zero));
}

TEST(Digest, ReferenceRoundTripIsExact) {
  ReferenceTable table;
  table["a"] = RunDigest{0.1, 1.0 / 3.0, 1, 0};
  table["b cfg=HHBB"] = RunDigest{std::nextafter(2.0, 3.0), 6.02e23, 11480, 11000};
  const std::string path = "perfbench_test_reference.tsv";
  write_reference(path, table);
  const ReferenceTable back = load_reference(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.size(), table.size());
  for (const auto& [key, digest] : table) {
    EXPECT_TRUE(check_reference(back, key, digest, true).empty()) << key;
  }
  RunDigest off = table["a"];
  off.total_energy_j = std::nextafter(off.total_energy_j, 1.0);
  EXPECT_FALSE(check_reference(back, "a", off, true).empty());
  EXPECT_TRUE(check_reference(back, "missing", off, false).empty());
  EXPECT_FALSE(check_reference(back, "missing", off, true).empty());
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnce) {
  // run [0,100) holds a [10,40) (which holds a1 [20,30)), b [50,60) and c
  // [55,70), which overlaps b.
  const std::vector<Span> spans = {
      {"run", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"a1", 20, 30, 1, 0},
      {"b", 50, 60, 0, 0},    {"c", 55, 70, 0, 0},
  };
  EXPECT_EQ(self_times_ns(spans), (std::vector<std::int64_t>{50, 20, 10, 10, 15}));
}

TEST(Spans, DisjointSelfTimesCoverTheRoot) {
  const std::vector<Span> spans = {
      {"run", 0, 100, -1, 0}, {"x", 5, 25, 0, 0}, {"y", 25, 90, 0, 0}, {"y1", 30, 40, 2, 0}};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
}

TEST(Spans, LogNestsByOpenOrder) {
  SpanLog log{7};
  {
    const ScopedSpan outer{log, "outer"};
    { const ScopedSpan inner{log, "inner"}; }
    const ScopedSpan second{log, "second"};
  }
  const std::vector<Span>& spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  for (const Span& s : spans) {
    EXPECT_EQ(s.run, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
    EXPECT_GE(s.start_ns, spans[0].start_ns);
    EXPECT_LE(s.end_ns, spans[0].end_ns);
  }
}

}  // namespace
}  // namespace perfbench
