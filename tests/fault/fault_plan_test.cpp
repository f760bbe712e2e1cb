// FaultPlan grammar: spec strings and the JSON document form must parse to
// the same events, reject malformed input with a diagnostic, and round-trip
// through to_string().
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace greencap::fault {
namespace {

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
}

TEST(FaultPlan, ParsesSingleCapfail) {
  const FaultPlan plan = FaultPlan::parse("capfail@gpu0:p=0.5,code=not_supported");
  ASSERT_EQ(plan.size(), 1u);
  const FaultEvent& e = plan.events()[0];
  EXPECT_EQ(e.kind, FaultKind::kCapWriteFail);
  EXPECT_EQ(e.gpu, 0);
  EXPECT_DOUBLE_EQ(e.probability, 0.5);
  EXPECT_EQ(e.code, CapError::kNotSupported);
  EXPECT_FALSE(e.permanent);
}

TEST(FaultPlan, ParsesMultipleEvents) {
  const FaultPlan plan =
      FaultPlan::parse("dropout@gpu2:t=12;drift@gpu1:t=5,watts=150;straggler@gpu3:t=2,until=8,factor=2.5");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kGpuDropout);
  EXPECT_EQ(plan.events()[0].gpu, 2);
  EXPECT_DOUBLE_EQ(plan.events()[0].t, 12.0);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kCapDrift);
  EXPECT_DOUBLE_EQ(plan.events()[1].watts, 150.0);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.events()[2].until, 8.0);
  EXPECT_DOUBLE_EQ(plan.events()[2].factor, 2.5);
}

TEST(FaultPlan, AnyTargetAllowedForWindowedKinds) {
  const FaultPlan plan = FaultPlan::parse("capfail@any:p=0.1;straggler@*:factor=2");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].gpu, -1);
  EXPECT_EQ(plan.events()[1].gpu, -1);
}

TEST(FaultPlan, OpenEndedWindowNormalisesToInfinity) {
  const FaultPlan plan = FaultPlan::parse("straggler@gpu0:t=3,factor=2");
  EXPECT_EQ(plan.events()[0].until, std::numeric_limits<double>::infinity());
}

TEST(FaultPlan, CountAndPermanentFlags) {
  const FaultPlan plan = FaultPlan::parse("capfail@gpu1:count=2;capfail@gpu2:perm=1");
  EXPECT_EQ(plan.events()[0].count, 2);
  EXPECT_TRUE(plan.events()[1].permanent);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode@gpu0"), std::invalid_argument);   // unknown kind
  EXPECT_THROW(FaultPlan::parse("capfail"), std::invalid_argument);        // no target
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:zap=1"), std::invalid_argument);  // unknown key
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:p=1.5"), std::invalid_argument);  // p out of range
  EXPECT_THROW(FaultPlan::parse("dropout@any:t=1"), std::invalid_argument);     // timed needs gpu
  EXPECT_THROW(FaultPlan::parse("dropout@gpu0:t=-1"), std::invalid_argument);   // negative time
  EXPECT_THROW(FaultPlan::parse("straggler@gpu0:factor=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("capfail@gpu0:code=bogus"), std::invalid_argument);
}

TEST(FaultPlan, JsonDocumentFormMatchesSpecForm) {
  std::istringstream json{R"({"events": [
    {"kind": "dropout", "gpu": 2, "t": 12.0},
    {"kind": "capfail", "gpu": 0, "p": 0.25, "code": "no_permission"},
    {"kind": "straggler", "gpu": 1, "t": 2.0, "until": 8.0, "factor": 3.0}
  ]})"};
  const FaultPlan plan = FaultPlan::parse_json(json);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kGpuDropout);
  EXPECT_EQ(plan.events()[0].gpu, 2);
  EXPECT_DOUBLE_EQ(plan.events()[1].probability, 0.25);
  EXPECT_EQ(plan.events()[1].code, CapError::kNoPermission);
  EXPECT_DOUBLE_EQ(plan.events()[2].factor, 3.0);
}

TEST(FaultPlan, JsonRejectsUnknownKeysAndGarbage) {
  std::istringstream unknown{R"({"events": [{"kind": "dropout", "gpu": 0, "t": 1, "zap": 2}]})"};
  EXPECT_THROW(FaultPlan::parse_json(unknown), std::invalid_argument);
  std::istringstream garbage{"not json"};
  EXPECT_THROW(FaultPlan::parse_json(garbage), std::invalid_argument);
  std::istringstream trailing{R"({"events": []} trailing)"};
  EXPECT_THROW(FaultPlan::parse_json(trailing), std::invalid_argument);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string spec =
      "capfail@gpu0:p=0.5,code=not_supported;dropout@gpu2:t=12;straggler@gpu1:t=2,until=8,factor=2.5;"
      "drift@gpu1:t=1.23456789,watts=250.123456;capfail@any:count=3,perm=1";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan replay = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(replay.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_TRUE(replay.events()[i] == plan.events()[i]) << plan.events()[i].to_string();
  }
  EXPECT_NE(plan.to_string().find("t=1.23456789,watts=250.123456"), std::string::npos)
      << plan.to_string();
}

// Both grammars share one key table: an event written in either form gives
// the same FaultEvent, or both forms reject it.
TEST(FaultPlan, SpecAndJsonFormsAgree) {
  struct Case {
    const char* spec;
    const char* json;  // one event object
    bool valid;
  };
  const Case cases[] = {
      {"dropout@gpu2:t=12", R"({"kind": "dropout", "gpu": 2, "t": 12.0})", true},
      {"capfail@gpu0:p=0.25,code=no_permission",
       R"({"kind": "capfail", "gpu": 0, "p": 0.25, "code": "no_permission"})", true},
      {"straggler@gpu1:t=2,until=8,factor=3",
       R"({"kind": "straggler", "gpu": 1, "t": 2, "until": 8, "factor": 3e0})", true},
      {"straggler@any:factor=2", R"({"kind": "straggler", "factor": 2})", true},
      {"capfail@gpu2:perm=1,code=not_supported",
       R"({"kind": "capfail", "gpu": 2, "perm": true, "code": "not_supported"})", true},
      {"capfail@gpu2:perm=0", R"({"kind": "capfail", "gpu": 2, "perm": false})", true},
      {"capfail@gpu1:count=2", R"({"kind": "capfail", "gpu": 1, "count": 2})", true},
      {"drift@gpu1:t=1.23456789,watts=250.123456",
       R"({"kind": "drift", "gpu": 1, "t": 1.23456789, "watts": 250.123456})", true},
      // Integer members take integers only: no fractions, no integral
      // decimals, nothing outside int.
      {"capfail@gpu1.7:count=2.5", R"({"kind": "capfail", "gpu": 1.7, "count": 2.5})", false},
      {"capfail@gpu1:count=3.0", R"({"kind": "capfail", "gpu": 1, "count": 3.0})", false},
      {"capfail@gpu1:perm=0.5", R"({"kind": "capfail", "gpu": 1, "perm": 0.5})", false},
      {"dropout@gpu99999999999:t=1", R"({"kind": "dropout", "gpu": 99999999999, "t": 1})", false},
      {"capfail@gpu1:count=1e12", R"({"kind": "capfail", "gpu": 1, "count": 1e12})", false},
      {"dropout@gpu-1:t=1", R"({"kind": "dropout", "gpu": -1, "t": 1})", false},
      {"capfail@gpu0:count=-1", R"({"kind": "capfail", "gpu": 0, "count": -1})", false},
      {"capfail@gpu0:zap=1", R"({"kind": "capfail", "gpu": 0, "zap": 1})", false},
      {"dropout@any:t=1", R"({"kind": "dropout", "t": 1})", false},
      // Real values are finite.
      {"dropout@gpu0:t=nan", R"({"kind": "dropout", "gpu": 0, "t": nan})", false},
      {"straggler@gpu1:factor=inf", R"({"kind": "straggler", "gpu": 1, "factor": inf})", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    std::istringstream json{std::string{R"({"events": [)"} + c.json + "]}"};
    if (!c.valid) {
      EXPECT_THROW((void)FaultPlan::parse(c.spec), std::invalid_argument);
      EXPECT_THROW((void)FaultPlan::parse_json(json), std::invalid_argument);
      continue;
    }
    const FaultPlan spec = FaultPlan::parse(c.spec);
    const FaultPlan doc = FaultPlan::parse_json(json);
    ASSERT_EQ(spec.size(), 1u);
    ASSERT_EQ(doc.size(), 1u);
    EXPECT_TRUE(spec.events()[0] == doc.events()[0]) << doc.to_string();
  }
}

TEST(FaultPlan, OutOfRangeIntegersNameTheValue) {
  for (const std::string spec : {"dropout@gpu99999999999:t=1", "capfail@gpu1:count=1e12"}) {
    try {
      (void)FaultPlan::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string value = spec.find("count") != std::string::npos ? "1e12" : "99999999999";
      EXPECT_NE(std::string{e.what()}.find(value), std::string::npos) << e.what();
    }
  }
}

TEST(FaultPlan, JsonValuesKeepTheirTypes) {
  for (const char* event : {R"({"kind": "dropout", "gpu": 0, "t": "1"})",
                            R"({"kind": "capfail", "gpu": true})",
                            R"({"kind": "capfail", "gpu": 0, "code": 1})",
                            R"({"kind": dropout, "gpu": 0, "t": 1})"}) {
    std::istringstream json{std::string{R"({"events": [)"} + event + "]}"};
    EXPECT_THROW((void)FaultPlan::parse_json(json), std::invalid_argument) << event;
  }
}

TEST(FaultPlan, MissingJsonFileThrows) {
  EXPECT_THROW(FaultPlan::parse("@/nonexistent/fault_plan.json"), std::invalid_argument);
}

}  // namespace
}  // namespace greencap::fault
