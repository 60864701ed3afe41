// Fuzz-schedule generator and repro-format tests: every generated schedule
// is a valid experiment (2B < P, known specs), schedules round-trip through
// the JSON repro format bit-for-bit, malformed repro files report instead
// of aborting, and ScriptedFaults matches messages by occurrence.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "byz/attack.h"
#include "fl/aggregators.h"
#include "fl/upload.h"
#include "net/node_id.h"
#include "runtime/async_fedms.h"
#include "testing/schedule.h"
#include "testing/test_seed.h"

namespace {

using fedms::testing::EventAction;
using fedms::testing::FuzzSchedule;
using fedms::testing::generate_schedule;
using fedms::testing::ScheduleEvent;
using fedms::testing::ScheduleKind;
using fedms::testing::ScriptedFaults;

bool events_equal(const ScheduleEvent& a, const ScheduleEvent& b) {
  return a.action == b.action && a.round == b.round &&
         a.from_server == b.from_server && a.from == b.from &&
         a.to_server == b.to_server && a.to == b.to && a.kind == b.kind &&
         a.occurrence == b.occurrence && a.seconds == b.seconds;
}

bool schedules_equal(const FuzzSchedule& a, const FuzzSchedule& b) {
  if (a.seed != b.seed || a.kind != b.kind || a.clients != b.clients ||
      a.servers != b.servers || a.byzantine != b.byzantine ||
      a.rounds != b.rounds || a.local_iterations != b.local_iterations ||
      a.upload != b.upload || a.client_filter != b.client_filter ||
      a.attack != b.attack ||
      a.byzantine_placement != b.byzantine_placement ||
      a.participation != b.participation || a.run_seed != b.run_seed ||
      a.data_seed != b.data_seed ||
      a.compute_seconds != b.compute_seconds ||
      a.upload_window_seconds != b.upload_window_seconds ||
      a.broadcast_timeout_seconds != b.broadcast_timeout_seconds ||
      a.max_retries != b.max_retries ||
      a.retry_backoff_seconds != b.retry_backoff_seconds ||
      a.events.size() != b.events.size())
    return false;
  for (std::size_t i = 0; i < a.events.size(); ++i)
    if (!events_equal(a.events[i], b.events[i])) return false;
  return true;
}

TEST(FuzzSchedule, GeneratorProducesValidExperiments) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed6001);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "FuzzSchedule"));

  std::size_t kinds[3] = {0, 0, 0};
  std::size_t partial_parity = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const FuzzSchedule s = generate_schedule(root + i);
    SCOPED_TRACE("schedule seed " + std::to_string(root + i));

    // Strict Byzantine minority and a config every constructor accepts.
    EXPECT_LT(2 * s.byzantine, s.servers);
    EXPECT_EQ(s.fed_config().check(), "");
    EXPECT_EQ(fedms::fl::check_aggregator_spec(s.client_filter), "");
    EXPECT_EQ(fedms::fl::check_upload_spec(s.upload), "");
    EXPECT_EQ(fedms::byz::check_attack_name(s.attack), "");
    if (s.byzantine == 0) {
      EXPECT_EQ(s.attack, "benign");
    }

    // Scripted events only appear on fault schedules; partial
    // participation only on the fault-free (parity, transport) ones.
    if (s.kind != ScheduleKind::kFault) {
      EXPECT_TRUE(s.events.empty());
    } else {
      EXPECT_EQ(s.participation, 1.0);
    }
    for (const ScheduleEvent& e : s.events) {
      if (!e.matches_messages()) continue;
      EXPECT_LT(e.round, s.rounds);
      EXPECT_NE(e.from_server, e.to_server);  // uploads or broadcasts only
    }
    kinds[std::size_t(s.kind)]++;
    if (s.kind == ScheduleKind::kParity && s.participation < 1.0)
      ++partial_parity;
  }
  // The generator must exercise all three execution paths, and the
  // sync/async parity oracle must see partial participation.
  EXPECT_GT(kinds[0], 0u);
  EXPECT_GT(kinds[1], 0u);
  EXPECT_GT(kinds[2], 0u);
  EXPECT_GT(partial_parity, 0u);
}

TEST(FuzzSchedule, JsonRoundTripIsLossless) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed6002);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "FuzzSchedule"));
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FuzzSchedule s = generate_schedule(root + i);
    const FuzzSchedule back = FuzzSchedule::from_json(s.to_json());
    EXPECT_TRUE(schedules_equal(s, back))
        << "lossy round-trip for seed " << (root + i) << ":\n"
        << s.to_json();
    // Serialization itself is deterministic.
    EXPECT_EQ(s.to_json(), back.to_json());
  }
}

TEST(FuzzSchedule, FromJsonReportsMalformedInput) {
  EXPECT_THROW(FuzzSchedule::from_json("not json"), std::runtime_error);
  EXPECT_THROW(FuzzSchedule::from_json("{}"), std::runtime_error);

  FuzzSchedule s = generate_schedule(1);
  // Unknown event action.
  std::string text = s.to_json();
  FuzzSchedule bad = s;
  bad.events.clear();
  ScheduleEvent e;
  e.action = EventAction::kDrop;
  bad.events.push_back(e);
  std::string bad_text = bad.to_json();
  const auto pos = bad_text.find("\"drop\"");
  ASSERT_NE(pos, std::string::npos);
  bad_text.replace(pos, 6, "\"melt\"");
  EXPECT_THROW(FuzzSchedule::from_json(bad_text), std::runtime_error);

  // Invalid topology in an otherwise well-formed file: reported, not
  // aborted (hand-edited repro files must never core-dump the harness).
  FuzzSchedule invalid = s;
  invalid.byzantine = invalid.servers;  // violates 2B <= P
  try {
    FuzzSchedule::from_json(invalid.to_json());
    FAIL() << "expected repro validation to throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("repro schedule invalid"),
              std::string::npos)
        << error.what();
  }
}

fedms::runtime::MessageEvent upload_message(std::uint64_t round,
                                            std::size_t client,
                                            std::size_t server) {
  fedms::runtime::MessageEvent m;
  m.round = round;
  m.from = fedms::net::client_id(client);
  m.to = fedms::net::server_id(server);
  m.kind = fedms::net::MessageKind::kModelUpload;
  return m;
}

TEST(ScriptedFaults, MatchesByOccurrenceAndResets) {
  FuzzSchedule s;
  s.kind = ScheduleKind::kFault;
  ScheduleEvent drop;
  drop.action = EventAction::kDrop;
  drop.round = 0;
  drop.from_server = false;
  drop.from = 0;
  drop.to_server = true;
  drop.to = 1;
  drop.kind = "upload";
  drop.occurrence = 1;  // the SECOND matching message is lost
  s.events.push_back(drop);
  ScheduleEvent delay = drop;
  delay.action = EventAction::kDelay;
  delay.occurrence = 0;
  delay.seconds = 0.25;
  s.events.push_back(delay);

  ScriptedFaults faults(s);
  auto hook = faults.hook();

  // Occurrence 0: delayed but delivered; occurrence 1: dropped; later
  // occurrences and non-matching messages untouched.
  auto fate0 = hook(upload_message(0, 0, 1));
  ASSERT_TRUE(fate0.has_value());
  EXPECT_FALSE(fate0->dropped);
  EXPECT_DOUBLE_EQ(fate0->extra_delay, 0.25);
  auto fate1 = hook(upload_message(0, 0, 1));
  ASSERT_TRUE(fate1.has_value());
  EXPECT_TRUE(fate1->dropped);
  EXPECT_FALSE(hook(upload_message(0, 0, 1)).has_value());
  EXPECT_FALSE(hook(upload_message(0, 0, 0)).has_value());  // wrong server
  EXPECT_FALSE(hook(upload_message(1, 0, 1)).has_value());  // wrong round

  // reset() restores occurrence counting for determinism double-runs.
  faults.reset();
  auto again = hook(upload_message(0, 0, 1));
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(again->extra_delay, 0.25);
}

TEST(ScheduleEvent, ToStringSummaries) {
  ScheduleEvent e;
  e.action = EventAction::kDelay;
  e.round = 2;
  e.from_server = true;
  e.from = 3;
  e.to = 1;
  e.kind = "broadcast";
  e.seconds = 0.5;
  EXPECT_EQ(e.to_string(), "delay r2 s3->c1 broadcast#0 +0.5s");
  ScheduleEvent crash;
  crash.action = EventAction::kCrash;
  crash.from_server = true;
  crash.from = 2;
  crash.round = 1;
  EXPECT_EQ(crash.to_string(), "crash s2@r1");
}

}  // namespace
