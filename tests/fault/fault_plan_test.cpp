// FaultPlan tests: query semantics, the text format round-trip, and the
// inline spec grammar.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace pipemap {
namespace {

TEST(FaultPlanTest, CrashIsPermanentAndInstanceScoped) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kCrash, 2.0,
                                   std::numeric_limits<double>::infinity(),
                                   /*module=*/1, /*instance=*/0, 0, 1.0});
  EXPECT_FALSE(plan.CrashedAt(1, 0, 1.9));
  EXPECT_TRUE(plan.CrashedAt(1, 0, 2.0));
  EXPECT_TRUE(plan.CrashedAt(1, 0, 100.0));
  EXPECT_FALSE(plan.CrashedAt(1, 1, 100.0));
  EXPECT_FALSE(plan.CrashedAt(0, 0, 100.0));
}

TEST(FaultPlanTest, CrashWithInstanceMinusOneKillsEveryInstance) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kCrash, 1.0,
                                   std::numeric_limits<double>::infinity(),
                                   /*module=*/0, /*instance=*/-1, 0, 1.0});
  EXPECT_TRUE(plan.CrashedAt(0, 0, 1.0));
  EXPECT_TRUE(plan.CrashedAt(0, 7, 1.0));
}

TEST(FaultPlanTest, SlowdownFactorsAreWindowedAndMultiplicative) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kSlowdown, 1.0, 2.0, 0, -1, 0, 3.0});
  plan.events.push_back(
      FaultEvent{FaultKind::kSlowdown, 2.0, 2.0, 0, -1, 0, 2.0});
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(0, 0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(0, 0, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(0, 0, 2.5), 6.0);  // overlap
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(0, 0, 3.5), 2.0);
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(0, 0, 4.0), 1.0);  // window end excl.
  EXPECT_DOUBLE_EQ(plan.ComputeFactor(1, 0, 1.5), 1.0);  // other module
}

TEST(FaultPlanTest, TransferFactorTargetsOneBoundary) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kLinkDegrade, 0.0, 5.0, 0, -1, /*edge=*/1, 4.0});
  EXPECT_DOUBLE_EQ(plan.TransferFactor(1, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(plan.TransferFactor(0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.TransferFactor(1, 5.0), 1.0);
}

TEST(FaultPlanTest, FirstCrashPicksEarliest) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kSlowdown, 0.5, 1.0, 0, -1, 0, 2.0});
  plan.events.push_back(FaultEvent{FaultKind::kCrash, 3.0,
                                   std::numeric_limits<double>::infinity(),
                                   2, 0, 0, 1.0});
  plan.events.push_back(FaultEvent{FaultKind::kCrash, 1.0,
                                   std::numeric_limits<double>::infinity(),
                                   1, 0, 0, 1.0});
  ASSERT_NE(plan.FirstCrash(), nullptr);
  EXPECT_EQ(plan.FirstCrash()->module, 1);
  EXPECT_EQ(plan.CountKind(FaultKind::kCrash), 2);
  EXPECT_EQ(plan.CountKind(FaultKind::kSlowdown), 1);
}

TEST(FaultPlanTest, ValidateRejectsBadEvents) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kSlowdown, -1.0, 1.0, 0, -1, 0, 2.0});
  EXPECT_THROW(plan.Validate(3), InvalidArgument);
  plan.events[0] = FaultEvent{FaultKind::kSlowdown, 0.0, 1.0, 0, -1, 0, 0.0};
  EXPECT_THROW(plan.Validate(3), InvalidArgument);
  plan.events[0] = FaultEvent{FaultKind::kCrash, 0.0, 1.0, 5, 0, 0, 1.0};
  EXPECT_THROW(plan.Validate(3), InvalidArgument);  // module out of range
  plan.events[0] = FaultEvent{FaultKind::kLinkDegrade, 0.0, 1.0, 0, -1, 2, 2.0};
  EXPECT_THROW(plan.Validate(3), InvalidArgument);  // edge out of range
  plan.events[0] = FaultEvent{FaultKind::kCrash, 0.0, 1.0, 2, 0, 0, 1.0};
  EXPECT_NO_THROW(plan.Validate(3));
}

TEST(FaultPlanTest, SerializeParseRoundTrips) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kSlowdown, 0.25, 1.5, 3, -1, 0, 2.75});
  plan.events.push_back(FaultEvent{FaultKind::kCrash, 1.0 / 3.0,
                                   std::numeric_limits<double>::infinity(),
                                   /*module=*/4, /*instance=*/2, 0, 1.0});
  plan.events.push_back(
      FaultEvent{FaultKind::kLinkDegrade, 2.0, 0.1, 0, -1, /*edge=*/3, 1.125});
  plan.Validate(5);
  const std::string text = SerializeFaultPlan(plan);
  const FaultPlan parsed = ParseFaultPlan(text);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.CountKind(FaultKind::kCrash), 1);
  EXPECT_EQ(parsed.CountKind(FaultKind::kSlowdown), 1);
  EXPECT_EQ(parsed.CountKind(FaultKind::kLinkDegrade), 1);
  EXPECT_EQ(parsed.events[1].time_s, 1.0 / 3.0);
  EXPECT_EQ(parsed.events[1].instance, 2);
  EXPECT_EQ(parsed.events[2].edge, 3);
  EXPECT_EQ(SerializeFaultPlan(parsed), text);
}

TEST(FaultPlanTest, ParsePlanRejectsMalformedText) {
  EXPECT_THROW(ParseFaultPlan(""), InvalidArgument);
  EXPECT_THROW(ParseFaultPlan("wrong header\n"), InvalidArgument);
  EXPECT_THROW(ParseFaultPlan("pipemap-faults v1\nevents 1\nend\n"),
               InvalidArgument);
  EXPECT_THROW(
      ParseFaultPlan("pipemap-faults v1\nevents 1\n"
                     "crash nan inf 0 0 1\nend\n"),
      InvalidArgument);
}

TEST(FaultPlanTest, SpecGrammarParsesAllThreeKinds) {
  const FaultPlan plan =
      ParseFaultSpec("crash@2.0:m1.i0; slow@1.0+3.0:m2x2.5 ;link@0.5+1:e0x2");
  ASSERT_EQ(plan.events.size(), 3u);
  // Sorted by time: link (0.5), slow (1.0), crash (2.0).
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.events[0].edge, 0);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 2.0);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kSlowdown);
  EXPECT_EQ(plan.events[1].module, 2);
  EXPECT_EQ(plan.events[1].instance, -1);
  EXPECT_DOUBLE_EQ(plan.events[1].duration_s, 3.0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[2].module, 1);
  EXPECT_EQ(plan.events[2].instance, 0);
}

TEST(FaultPlanTest, SpecGrammarRejectsMistakes) {
  EXPECT_THROW(ParseFaultSpec(""), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("crash@2.0"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("boom@2.0:m0"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("crash@2.0+1.0:m0"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("slow@1.0:m0x2"), InvalidArgument);   // no +D
  EXPECT_THROW(ParseFaultSpec("slow@1.0+2.0:m0"), InvalidArgument);  // no xF
  EXPECT_THROW(ParseFaultSpec("link@1.0+2.0:m0x2"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("crash@abc:m0"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("crash@1.0:m0.iX"), InvalidArgument);
}

TEST(FaultPlanTest, SpecRoundTripsThroughCanonicalForm) {
  const FaultPlan plan = ParseFaultSpec("crash@2:m0.i1;slow@0+4:m1x3");
  const FaultPlan reparsed = ParseFaultPlan(SerializeFaultPlan(plan));
  EXPECT_EQ(SerializeFaultPlan(reparsed), SerializeFaultPlan(plan));
}

}  // namespace
}  // namespace pipemap
