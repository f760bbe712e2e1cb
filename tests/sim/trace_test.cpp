#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace greencap::sim {
namespace {

Span make_span(std::int32_t resource, double begin, double end, SpanKind kind = SpanKind::kTask) {
  return Span{kind, resource, 0, "k", SimTime::seconds(begin), SimTime::seconds(end)};
}

TEST(Trace, DisabledByDefault) {
  Trace trace;
  trace.add_span(make_span(0, 0.0, 1.0));
  EXPECT_TRUE(trace.spans().empty());
}

TEST(Trace, RecordsWhenEnabled) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(0, 0.0, 1.0));
  trace.add_marker("cap change", SimTime::seconds(0.5));
  EXPECT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.markers().size(), 1u);
}

TEST(Trace, SpansOnFiltersAndSorts) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(1, 2.0, 3.0));
  trace.add_span(make_span(0, 0.0, 1.0));
  trace.add_span(make_span(1, 0.0, 1.0));
  const auto spans = trace.spans_on(1);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, SimTime::zero());
  EXPECT_EQ(spans[1].begin, SimTime::seconds(2.0));
}

TEST(Trace, BusyTimeSumsDurations) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(2, 0.0, 1.5));
  trace.add_span(make_span(2, 2.0, 3.0));
  trace.add_span(make_span(3, 0.0, 10.0));
  EXPECT_DOUBLE_EQ(trace.busy_time(2).sec(), 2.5);
}

TEST(Trace, DisjointDetectsOverlap) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(0, 0.0, 2.0));
  trace.add_span(make_span(0, 1.0, 3.0));
  EXPECT_FALSE(trace.resource_spans_disjoint());
}

TEST(Trace, TouchingSpansAreDisjoint) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(0, 0.0, 1.0));
  trace.add_span(make_span(0, 1.0, 2.0));
  EXPECT_TRUE(trace.resource_spans_disjoint());
}

TEST(Trace, TransfersMayOverlap) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(0, 0.0, 2.0, SpanKind::kTransfer));
  trace.add_span(make_span(0, 1.0, 3.0, SpanKind::kTransfer));
  EXPECT_TRUE(trace.resource_spans_disjoint());
}

TEST(Trace, ClearEmpties) {
  Trace trace;
  trace.enable();
  trace.add_span(make_span(0, 0.0, 1.0));
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
}

TEST(Trace, SpanKindNames) {
  EXPECT_STREQ(to_string(SpanKind::kTask), "task");
  EXPECT_STREQ(to_string(SpanKind::kTransfer), "transfer");
}

}  // namespace
}  // namespace greencap::sim
