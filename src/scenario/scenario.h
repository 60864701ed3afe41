// Declarative churn scenarios: a JSON schema scripting per-round events —
// client join/leave, PS crash and recovery with state handoff, attack-mix
// switches, Dirichlet-α drift, and participation-rate changes — compiled
// into the runtime's FaultPlan event machinery and executed by
// AsyncFedMsRun (see engine.h).
//
// Schema (all keys optional unless noted; unknown or duplicate keys are
// rejected with a one-line error):
//
//   {
//     "name": "churn-demo",
//     "rounds": 12, "clients": 10, "servers": 5, "byzantine": 1,
//     "attack": "signflip", "defense": "trmean:0.2",
//     "local_iterations": 3, "upload": "sparse", "eval_every": 1,
//     "workload": { "samples": 512, "feature_dimension": 16,
//                   "classes": 10, "dirichlet_alpha": 0.5,
//                   "model": "mlp", "batch_size": 16,
//                   "learning_rate": 0.3, "eval_sample_cap": 128 },
//     "events": [
//       {"round": 3, "type": "leave",         "client": 2},
//       {"round": 5, "type": "join",          "client": 2},
//       {"round": 4, "type": "ps_crash",      "server": 1},
//       {"round": 6, "type": "ps_recover",    "server": 1},
//       {"round": 7, "type": "attack_switch", "attack": "noise"},
//       {"round": 8, "type": "alpha_drift",   "alpha": 0.1},
//       {"round": 9, "type": "participation", "rate": 0.8}
//     ]
//   }
//
// Membership semantics: join/leave take effect at the start of their
// round; a participation event sets the per-round Bernoulli participation
// rate from its round onward (draws are a pure function of (seed, round,
// client), so they are independent of join order and of each other).
// Attack switches retarget the dissemination-edge behavior of the
// Byzantine PSs only; alpha drift repartitions every client's local
// dataset with the new Dirichlet α.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/config.h"
#include "fl/experiment.h"
#include "runtime/fault.h"
#include "core/json_min.h"

namespace fedms::scenario {

struct ScenarioEvent {
  enum class Type {
    kJoin,
    kLeave,
    kPsCrash,
    kPsRecover,
    kAttackSwitch,
    kAlphaDrift,
    kParticipation,
  };
  Type type = Type::kJoin;
  std::uint64_t round = 0;
  std::size_t node = 0;  // client (join/leave) or server (ps_*)
  std::string attack;    // attack_switch payload
  double value = 0.0;    // alpha (alpha_drift) or rate (participation)
};

struct Scenario {
  std::string name = "scenario";
  // Topology/protocol knobs land here; scenario JSON overrides a subset
  // (rounds, clients, servers, byzantine, attack, defense, ...).
  fl::FedMsConfig fed;
  fl::WorkloadConfig workload;
  std::vector<ScenarioEvent> events;

  // One-line error ("" = valid): fed.check() plus event bounds (rounds,
  // node indices, alpha/rate ranges, attack names, recover-after-crash,
  // one event per (type, node, round), and >= 1 client present every
  // round under the explicit join/leave schedule).
  std::string check() const;

  // Expands join/leave/ps_crash/ps_recover plus participation-rate spans
  // into a runtime::FaultPlan. Participation draws are Bernoulli per
  // (seed, round, client), diff-encoded into churn events; if a round
  // would end up with no active client, the lowest-indexed present
  // client is kept active. Precondition: check() is empty.
  runtime::FaultPlan compile_fault_plan(std::uint64_t seed) const;

  // Strict parse: unknown keys, wrong types, malformed events, and any
  // check() violation throw std::runtime_error with a one-line message.
  static Scenario from_json(const core::Json& json);
  static Scenario parse(const std::string& text);
  // Reads and parses the file; the path is cited in errors.
  static Scenario load(const std::string& path);
};

}  // namespace fedms::scenario
