#include <gtest/gtest.h>

#include "runtime/fault.h"
#include "runtime/policy.h"

namespace fedms::runtime {
namespace {

TEST(FaultPlan, EmptySpecParsesToNoFaults) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_string(), "");
}

TEST(FaultPlan, ParseRoundTripsThroughToString) {
  const std::string spec =
      "crash=3@5,4@5;drop=0.1;dup=0.05;omit=0.02;delay=0.2:0.5;"
      "straggler=0:4,2:2;sstraggler=1:3";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].server, 3u);
  EXPECT_EQ(plan.crashes[0].round, 5u);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.omission_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.delay_seconds, 0.5);
  EXPECT_DOUBLE_EQ(plan.client_stragglers.at(0), 4.0);
  EXPECT_DOUBLE_EQ(plan.server_stragglers.at(1), 3.0);
  // to_string emits an equivalent spec.
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlanDeath, RejectsMalformedSpecs) {
  EXPECT_DEATH(FaultPlan::parse("drop"), "Precondition");
  EXPECT_DEATH(FaultPlan::parse("crash=3"), "Precondition");
  EXPECT_DEATH(FaultPlan::parse("bogus=1"), "Precondition");
  EXPECT_DEATH(FaultPlan::parse("drop=nope"), "Precondition");
  EXPECT_DEATH(FaultPlan::parse("drop=1.5"), "Precondition");
  EXPECT_DEATH(FaultPlan::parse("straggler=0:0.5"), "Precondition");
}

TEST(FaultInjector, CrashScheduleIsPerRound) {
  FaultPlan plan = FaultPlan::parse("crash=2@3");
  FaultInjector injector(plan, core::Rng(1));
  EXPECT_FALSE(injector.server_crashed(2, 0));
  EXPECT_FALSE(injector.server_crashed(2, 2));
  EXPECT_TRUE(injector.server_crashed(2, 3));
  EXPECT_TRUE(injector.server_crashed(2, 10));
  EXPECT_FALSE(injector.server_crashed(1, 10));
  EXPECT_EQ(injector.crashed_count(2), 0u);
  EXPECT_EQ(injector.crashed_count(3), 1u);
}

TEST(FaultInjector, DropRateMatchesStatistically) {
  FaultPlan plan;
  plan.drop_rate = 0.3;
  FaultInjector injector(plan, core::Rng(7));
  int dropped = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (injector.message_fate(net::client_id(0), net::server_id(0)).dropped)
      ++dropped;
  EXPECT_NEAR(double(dropped) / n, 0.3, 0.02);
}

TEST(FaultInjector, DuplicatesAndDelays) {
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  plan.delay_rate = 1.0;
  plan.delay_seconds = 0.5;
  FaultInjector injector(plan, core::Rng(3));
  const auto fate =
      injector.message_fate(net::server_id(0), net::client_id(1));
  EXPECT_FALSE(fate.dropped);
  EXPECT_EQ(fate.copies, 2u);
  EXPECT_DOUBLE_EQ(fate.extra_delay, 0.5);
}

TEST(FaultInjector, StragglerFactorsAreNodeScoped) {
  FaultPlan plan = FaultPlan::parse("straggler=1:4;sstraggler=1:2");
  FaultInjector injector(plan, core::Rng(1));
  EXPECT_DOUBLE_EQ(injector.straggler_factor(net::client_id(1)), 4.0);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(net::server_id(1)), 2.0);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(net::client_id(0)), 1.0);
}

TEST(FaultInjector, OmissionOnlyAffectsServerSenders) {
  FaultPlan plan;
  plan.omission_rate = 0.9;
  FaultInjector injector(plan, core::Rng(5));
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(injector.omits(net::client_id(0)));
  int omitted = 0;
  for (int i = 0; i < 1000; ++i)
    if (injector.omits(net::server_id(0))) ++omitted;
  EXPECT_NEAR(double(omitted) / 1000.0, 0.9, 0.05);
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.drop_rate = 0.4;
  plan.duplicate_rate = 0.2;
  FaultInjector a(plan, core::Rng(11));
  FaultInjector b(plan, core::Rng(11));
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.message_fate(net::client_id(0), net::server_id(0));
    const auto fb = b.message_fate(net::client_id(0), net::server_id(0));
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.copies, fb.copies);
    EXPECT_DOUBLE_EQ(fa.extra_delay, fb.extra_delay);
  }
}

TEST(Policy, TrimFeasibilityNeedsASurvivor) {
  EXPECT_TRUE(trim_feasible(5, 2));
  EXPECT_FALSE(trim_feasible(4, 2));
  EXPECT_TRUE(trim_feasible(1, 0));
  EXPECT_FALSE(trim_feasible(0, 0));
}

TEST(Policy, QuorumDefaultsToByzantineMajorityForRobustFilters) {
  RuntimeOptions options;
  EXPECT_EQ(options.quorum(2, "trmean:0.2"), 5u);
  EXPECT_EQ(options.quorum(0, "trmean:0.2"), 1u);
  EXPECT_EQ(options.quorum(2, "mean"), 1u);  // undefended baseline
  options.min_candidates = 3;
  EXPECT_EQ(options.quorum(2, "trmean:0.2"), 3u);
}

}  // namespace
}  // namespace fedms::runtime
