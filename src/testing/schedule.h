// Seed-driven round schedules for the deterministic fuzz harness.
//
// A FuzzSchedule is the complete, explicit description of one fuzz case:
// the federated topology (with 2B < P), protocol knobs, timeout windows,
// and a list of discrete schedule events (message drops/delays/duplicates
// matched by occurrence, server crashes, stragglers). Everything is
// derived from a single 64-bit seed by generate_schedule(), and everything
// round-trips through JSON, so a failing case can be written to a repro
// file, replayed bit-for-bit, and shrunk by deleting events one at a time.
//
// Events are *explicit* rather than rate-driven on purpose: the runtime's
// FaultPlan draws drop/delay decisions from an RNG stream, so removing one
// fault during shrinking would shift every later draw and change the whole
// schedule. A scripted event list keeps each fault independent — exactly
// what greedy minimization needs — and consumes no fault randomness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/config.h"
#include "runtime/async_fedms.h"
#include "runtime/policy.h"

namespace fedms::testing {

// Which execution paths the case exercises:
//   kParity    — fault-free; sync simulator vs async runtime, per-round
//                differential model/traffic agreement plus all oracles.
//   kFault     — async runtime only, with scripted schedule events; run
//                twice for bit-identical determinism, plus oracles.
//   kTransport — fault-free tiny NN workload; sync simulator vs in-memory
//                transport engine (threads + wire codec), final-state
//                differential agreement.
enum class ScheduleKind { kParity, kFault, kTransport };

const char* to_string(ScheduleKind kind);

enum class EventAction {
  kDrop,       // the n-th matching message is lost
  kDelay,      // ... arrives `seconds` late
  kDuplicate,  // ... is delivered twice
  kCrash,      // server `node` is crash-silent from round `round` on
  kStraggler,  // node's compute/link times are scaled by `seconds` >= 1
  kJoin,       // client `node` (re)enters training at round `round`
  kLeave,      // client `node` exits training at round `round`
  kRecover,    // crashed server `node` is live again from round `round`
};

const char* to_string(EventAction action);

struct ScheduleEvent {
  EventAction action = EventAction::kDrop;

  // Message-matched actions (drop/delay/duplicate): the occurrence-th
  // message (0-based, in deterministic send order) with matching round,
  // endpoints, and kind ("upload" | "broadcast" | "retry" | "any").
  std::uint64_t round = 0;
  bool from_server = false;
  std::size_t from = 0;
  bool to_server = false;
  std::size_t to = 0;
  std::string kind = "any";
  std::size_t occurrence = 0;

  // kDelay: extra seconds; kStraggler: slowdown factor (node = from).
  double seconds = 0.0;

  bool matches_messages() const {
    return action == EventAction::kDrop || action == EventAction::kDelay ||
           action == EventAction::kDuplicate;
  }

  std::string to_string() const;  // one-line human summary
};

struct FuzzSchedule {
  std::uint64_t seed = 0;  // the generating seed (identity only)
  ScheduleKind kind = ScheduleKind::kParity;

  // Topology + protocol (always 2B < P when generated).
  std::size_t clients = 4;
  std::size_t servers = 3;
  std::size_t byzantine = 1;
  std::size_t rounds = 2;
  std::size_t local_iterations = 2;
  std::string upload = "sparse";
  std::string client_filter = "trmean:0.34";
  std::string attack = "noise";
  std::string byzantine_placement = "first";
  double participation = 1.0;  // < 1 only for kParity and kTransport

  // Independent seeds for the run and the synthetic problem data.
  std::uint64_t run_seed = 1;
  std::uint64_t data_seed = 42;

  // fenv rounding mode the whole case executes under (the fuzz space's
  // numerics axis): "nearest" | "upward" | "downward" | "towardzero".
  // run_schedule() installs it scoped around the run and restores the
  // ambient mode on exit. Drawn from its own named RNG stream so existing
  // corpus seeds keep their exact historical schedules; absent from old
  // repro JSON (defaults to "nearest").
  std::string rounding_mode = "nearest";

  // Runtime windows (the "server timeout" axis of the fuzz space).
  double compute_seconds = 0.05;
  double upload_window_seconds = 0.25;
  double broadcast_timeout_seconds = 0.25;
  std::size_t max_retries = 2;
  double retry_backoff_seconds = 0.1;

  std::vector<ScheduleEvent> events;  // kFault only

  // The runtime/simulator configs this schedule denotes. runtime_options()
  // folds crash/recover/join/leave/straggler events into the FaultPlan
  // (and enables round-keyed client streams whenever churn events exist);
  // message-matched events are applied through the runtime's MessageHook
  // instead (see ScriptedFaults).
  fl::FedMsConfig fed_config() const;
  runtime::RuntimeOptions runtime_options() const;

  // Event-plan validity over this schedule's shape as a one-line error
  // ("" = valid): recover/join/leave events must name in-range nodes, a
  // recovery needs an earlier crash of the same server, no (client, round)
  // pair may churn twice, and no round may lose every client. from_json
  // applies it so hand-edited repro files report instead of aborting, and
  // shrink_schedule uses it to skip candidates where deleting one event
  // (say, a crash) orphans another (its paired recover).
  std::string check_events() const;

  std::string to_json() const;
  // Throws std::runtime_error on malformed input.
  static FuzzSchedule from_json(const std::string& text);
};

// Expands a 64-bit seed into a complete schedule (the fuzzer's generator).
FuzzSchedule generate_schedule(std::uint64_t seed);

// Turns the schedule's message-matched events into a runtime::MessageHook.
// Stateful: counts matching messages per event; reset() before every run
// (determinism double-runs reuse one instance).
class ScriptedFaults {
 public:
  explicit ScriptedFaults(const FuzzSchedule& schedule);

  runtime::MessageHook hook();  // binds `this`; outlive the run
  void reset();

 private:
  struct Entry {
    ScheduleEvent event;
    std::size_t seen = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace fedms::testing
