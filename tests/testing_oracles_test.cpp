// Unit tests for the fuzz harness's invariant oracles: the Theorem-1
// envelope/finiteness check over filter decisions, trace causality over
// the async runtime's event log, canonical telemetry stage order, and the
// bitwise wire round-trip (including NaN payloads).
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fl/aggregators.h"
#include "obs/obs.h"
#include "obs/trace_merge.h"
#include "testing/oracles.h"

namespace {

using fedms::fl::kNoTrim;
using fedms::fl::ModelVector;
using fedms::runtime::FilterEvent;
using fedms::testing::check_canonical_stage_order;
using fedms::testing::check_filter_event;
using fedms::testing::check_trace_causality;
using fedms::testing::check_wire_roundtrip;
using fedms::testing::OracleResult;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// servers = {0, 1, 2}, is_byzantine[0] = true.
const std::vector<std::size_t> kServers = {0, 1, 2};
const std::vector<bool> kPlacement = {true, false, false};

TEST(FilterOracle, AcceptsFilteredModelInsideHonestEnvelope) {
  const std::vector<ModelVector> candidates = {{100.f}, {1.f}, {3.f}};
  ModelVector filtered = {2.f};  // mean of the honest pair after trim 1
  const FilterEvent event{0, 0, kServers, candidates, 1, filtered};
  EXPECT_EQ(check_filter_event(event, kPlacement, false), std::nullopt);
}

TEST(FilterOracle, CatchesEscapedByzantineValue) {
  const std::vector<ModelVector> candidates = {{100.f}, {1.f}, {3.f}};
  ModelVector filtered = {100.f};  // the Byzantine outlier leaked through
  const FilterEvent event{2, 1, kServers, candidates, 1, filtered};
  const OracleResult result = check_filter_event(event, kPlacement, false);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->oracle, "envelope");
  // The detail names the round, client, coordinate, and envelope.
  EXPECT_NE(result->detail.find("r2 client 1"), std::string::npos)
      << result->detail;
  EXPECT_NE(result->detail.find("[1, 3]"), std::string::npos)
      << result->detail;
}

TEST(FilterOracle, SkipsWhenTrimBudgetDoesNotCoverByzantines) {
  const std::vector<ModelVector> candidates = {{100.f}, {1.f}, {3.f}};
  ModelVector filtered = {100.f};
  // trim 0 < 1 Byzantine candidate: no guarantee applies, no violation.
  const FilterEvent event{0, 0, kServers, candidates, 0, filtered};
  EXPECT_EQ(check_filter_event(event, kPlacement, false), std::nullopt);
}

TEST(FilterOracle, FlagsNonFiniteModelWhenGuaranteeHolds) {
  const std::vector<ModelVector> candidates = {{100.f}, {1.f}, {3.f}};
  ModelVector filtered = {kNaN};
  const FilterEvent event{0, 0, kServers, candidates, 1, filtered};
  const OracleResult result = check_filter_event(event, kPlacement, false);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->oracle, "finite");
}

TEST(FilterOracle, MeanUnderNanAttackIsExpectedToBreak) {
  const std::vector<ModelVector> candidates = {{kNaN}, {1.f}, {3.f}};
  ModelVector filtered = {kNaN};
  // Non-trimming rule (kNoTrim) + a NaN-emitting attack: the undefended
  // baseline breaking here is the paper's motivation, not a harness bug.
  const FilterEvent nan_attack{0, 0, kServers, candidates, kNoTrim, filtered};
  EXPECT_EQ(check_filter_event(nan_attack, kPlacement, true), std::nullopt);
  // Same event under a finite attack: now the NaN is a real violation.
  const FilterEvent finite_attack{0, 0, kServers, candidates, kNoTrim,
                                  filtered};
  const OracleResult result =
      check_filter_event(finite_attack, kPlacement, false);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->oracle, "finite");
}

std::vector<std::string> good_trace() {
  return {
      "r0 t=0.050000000 trained client#0->client#0",
      "r0 t=0.050000000 send client#0->server#0",
      "r0 t=0.061000000 deliver client#0->server#0",
      "r0 t=0.070000000 send server#0->client#0",
      "r0 t=0.081000000 deliver server#0->client#0",
      "r0 t=0.081000000 filter client#0->client#0",
  };
}

TEST(TraceOracle, AcceptsCausalTrace) {
  EXPECT_EQ(check_trace_causality(good_trace(), 1, 1), std::nullopt);
}

TEST(TraceOracle, RejectsTimeTravel) {
  auto trace = good_trace();
  trace[2] = "r0 t=0.040000000 deliver client#0->server#0";  // before send
  const auto result = check_trace_causality(trace, 1, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->oracle, "trace");
  EXPECT_NE(result->detail.find("time went backwards"), std::string::npos);
}

TEST(TraceOracle, RejectsDeliveryWithoutSend) {
  std::vector<std::string> trace = good_trace();
  trace.insert(trace.begin() + 3,
               "r0 t=0.062000000 deliver client#0->server#0");
  const auto result = check_trace_causality(trace, 1, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->detail.find("without a matching send"),
            std::string::npos);
}

TEST(TraceOracle, RejectsFilterBeforeTraining) {
  std::vector<std::string> trace = {
      "r0 t=0.010000000 filter client#0->client#0",
      "r0 t=0.050000000 trained client#0->client#0",
  };
  const auto result = check_trace_causality(trace, 1, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->detail.find("before training"), std::string::npos);
}

TEST(TraceOracle, RejectsMissingTrainingForARound) {
  const auto result = check_trace_causality(good_trace(), 2, 1);
  ASSERT_TRUE(result.has_value());  // client#1 never trained
  EXPECT_NE(result->detail.find("client#1"), std::string::npos);
}

TEST(TraceOracle, NonParticipantFiltersUntrainedExactlyOnce) {
  // Client 1 sits round 0 out: it receives and filters, never trains.
  const std::vector<std::vector<bool>> participants = {{true, false}};
  std::vector<std::string> trace = good_trace();
  trace.push_back("r0 t=0.090000000 filter client#1->client#1");
  EXPECT_EQ(check_trace_causality(trace, 2, 1, nullptr, &participants),
            std::nullopt);

  // Training outside the draw is a violation ...
  std::vector<std::string> trained = trace;
  trained.insert(trained.begin(),
                 "r0 t=0.050000000 trained client#1->client#1");
  auto result = check_trace_causality(trained, 2, 1, nullptr, &participants);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->detail.find("client#1 trained 1 times (expected 0)"),
            std::string::npos);

  // ... and so is skipping the filter.
  trace.pop_back();
  result = check_trace_causality(trace, 2, 1, nullptr, &participants);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->detail.find("client#1 filtered/fell back 0 times"),
            std::string::npos);
}

TEST(TraceOracle, ParticipantStillTrainsBeforeItFilters) {
  const std::vector<std::vector<bool>> participants = {{true}};
  const std::vector<std::string> trace = {
      "r0 t=0.010000000 filter client#0->client#0",
      "r0 t=0.050000000 trained client#0->client#0",
  };
  const auto result =
      check_trace_causality(trace, 1, 1, nullptr, &participants);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->detail.find("before training"), std::string::npos);
}

TEST(TraceOracle, DuplicatedDeliveryNeedsDuplicatedSend) {
  auto trace = good_trace();
  // send-dup counts as an extra send, so two deliveries are fine.
  trace.insert(trace.begin() + 2, "r0 t=0.050000000 send-dup client#0->server#0");
  trace.insert(trace.begin() + 4, "r0 t=0.062000000 deliver client#0->server#0");
  EXPECT_EQ(check_trace_causality(trace, 1, 1), std::nullopt);
}

fedms::obs::SpanRecord span(const char* name, std::uint64_t round,
                            std::uint64_t start_ns) {
  fedms::obs::SpanRecord record{};
  record.category = "async";
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = start_ns + 10;
  record.round = round;
  return record;
}

TEST(StageOrderOracle, AcceptsCanonicalOrderAndIgnoresOtherCategories) {
  std::vector<fedms::obs::SpanRecord> spans = {
      span("local_training", 0, 100), span("upload", 0, 200),
      span("aggregation", 0, 300),    span("dissemination", 0, 400),
      span("filter", 0, 500),
      // A second round, and an out-of-order span in another category.
      span("local_training", 1, 600), span("filter", 1, 700),
  };
  spans.push_back(span("filter", 0, 50));
  spans.back().category = "sim";  // wrong category: must be ignored
  EXPECT_EQ(check_canonical_stage_order(spans, "async"), std::nullopt);
}

TEST(StageOrderOracle, RejectsFilterBeforeUpload) {
  const std::vector<fedms::obs::SpanRecord> spans = {
      span("local_training", 0, 100),
      span("filter", 0, 150),
      span("upload", 0, 200),
  };
  const auto result = check_canonical_stage_order(spans, "async");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->oracle, "stage-order");
}

TEST(WireOracle, RoundTripsFiniteAndNonFinitePayloads) {
  const std::vector<ModelVector> models = {
      {1.0f, -2.5f, 3.25f},
      {kNaN, std::numeric_limits<float>::infinity(), -0.0f},
      {},
  };
  EXPECT_EQ(check_wire_roundtrip(models), std::nullopt);
}

}  // namespace
