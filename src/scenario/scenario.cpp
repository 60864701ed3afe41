#include "scenario/scenario.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "byz/attack.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "fl/aggregators.h"

namespace fedms::scenario {

namespace {

using core::Json;

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("bad scenario: " + what);
}

std::uint64_t as_round(const Json& json, const char* key) {
  const Json* value = json.find(key);
  if (value == nullptr) bad(std::string("event is missing \"") + key + "\"");
  return static_cast<std::uint64_t>(value->as_size());
}

std::size_t event_index(const Json& json, const char* key,
                        const std::string& type) {
  const Json* value = json.find(key);
  if (value == nullptr)
    bad("\"" + type + "\" event needs a \"" + key + "\" index");
  return value->as_size();
}

// Per-key dispatch keeps the parse strict: every member must be consumed
// by exactly one case, so typos and stale keys fail instead of silently
// running the default.
void apply_top_level(Scenario& scenario, const std::string& key,
                     const Json& value);
void apply_workload(fl::WorkloadConfig& workload, const std::string& key,
                    const Json& value);
ScenarioEvent parse_event(const Json& json);

void apply_top_level(Scenario& scenario, const std::string& key,
                     const Json& value) {
  if (key == "name") {
    scenario.name = value.as_string();
    if (scenario.name.empty()) bad("\"name\" must be non-empty");
  } else if (key == "rounds") {
    scenario.fed.rounds = value.as_size();
  } else if (key == "clients") {
    scenario.fed.clients = value.as_size();
  } else if (key == "servers") {
    scenario.fed.servers = value.as_size();
  } else if (key == "byzantine") {
    scenario.fed.byzantine = value.as_size();
  } else if (key == "attack") {
    scenario.fed.attack = value.as_string();
  } else if (key == "defense") {
    scenario.fed.client_filter = value.as_string();
  } else if (key == "local_iterations") {
    scenario.fed.local_iterations = value.as_size();
  } else if (key == "upload") {
    scenario.fed.upload = value.as_string();
  } else if (key == "eval_every") {
    scenario.fed.eval_every = value.as_size();
  } else if (key == "workload") {
    for (const auto& [wkey, wvalue] : value.members())
      apply_workload(scenario.workload, wkey, wvalue);
  } else if (key == "events") {
    for (const Json& event : value.items())
      scenario.events.push_back(parse_event(event));
  } else {
    bad("unknown key \"" + key + "\"");
  }
}

void apply_workload(fl::WorkloadConfig& workload, const std::string& key,
                    const Json& value) {
  if (key == "samples") {
    workload.samples = value.as_size();
  } else if (key == "feature_dimension") {
    workload.feature_dimension = value.as_size();
  } else if (key == "classes") {
    workload.classes = value.as_size();
  } else if (key == "dirichlet_alpha") {
    workload.dirichlet_alpha = value.as_number();
  } else if (key == "model") {
    workload.model = value.as_string();
  } else if (key == "batch_size") {
    workload.batch_size = value.as_size();
  } else if (key == "learning_rate") {
    workload.learning_rate = value.as_number();
  } else if (key == "eval_sample_cap") {
    workload.eval_sample_cap = value.as_size();
  } else {
    bad("unknown workload key \"" + key + "\"");
  }
}

ScenarioEvent parse_event(const Json& json) {
  const Json* type_value = json.find("type");
  if (type_value == nullptr) bad("event is missing \"type\"");
  const std::string type = type_value->as_string();
  ScenarioEvent event;
  event.round = as_round(json, "round");
  std::vector<std::string> allowed = {"type", "round"};
  if (type == "join" || type == "leave") {
    event.type = type == "join" ? ScenarioEvent::Type::kJoin
                                : ScenarioEvent::Type::kLeave;
    event.node = event_index(json, "client", type);
    allowed.push_back("client");
  } else if (type == "ps_crash" || type == "ps_recover") {
    event.type = type == "ps_crash" ? ScenarioEvent::Type::kPsCrash
                                    : ScenarioEvent::Type::kPsRecover;
    event.node = event_index(json, "server", type);
    allowed.push_back("server");
  } else if (type == "attack_switch") {
    event.type = ScenarioEvent::Type::kAttackSwitch;
    const Json* attack = json.find("attack");
    if (attack == nullptr) bad("\"attack_switch\" event needs \"attack\"");
    event.attack = attack->as_string();
    allowed.push_back("attack");
  } else if (type == "alpha_drift") {
    event.type = ScenarioEvent::Type::kAlphaDrift;
    const Json* alpha = json.find("alpha");
    if (alpha == nullptr) bad("\"alpha_drift\" event needs \"alpha\"");
    event.value = alpha->as_number();
    allowed.push_back("alpha");
  } else if (type == "participation") {
    event.type = ScenarioEvent::Type::kParticipation;
    const Json* rate = json.find("rate");
    if (rate == nullptr) bad("\"participation\" event needs \"rate\"");
    event.value = rate->as_number();
    allowed.push_back("rate");
  } else {
    bad("unknown event type \"" + type + "\"");
  }
  for (const auto& [key, unused] : json.members()) {
    bool known = false;
    for (const std::string& name : allowed) known |= name == key;
    if (!known)
      bad("\"" + type + "\" event has unknown key \"" + key + "\"");
  }
  return event;
}

const char* type_name(ScenarioEvent::Type type) {
  switch (type) {
    case ScenarioEvent::Type::kJoin: return "join";
    case ScenarioEvent::Type::kLeave: return "leave";
    case ScenarioEvent::Type::kPsCrash: return "ps_crash";
    case ScenarioEvent::Type::kPsRecover: return "ps_recover";
    case ScenarioEvent::Type::kAttackSwitch: return "attack_switch";
    case ScenarioEvent::Type::kAlphaDrift: return "alpha_drift";
    case ScenarioEvent::Type::kParticipation: return "participation";
  }
  return "?";
}

// Presence under the *explicit* join/leave schedule only (participation
// draws layer on top in compile_fault_plan). Row r holds round r.
std::vector<std::vector<char>> presence_matrix(const Scenario& scenario) {
  runtime::FaultPlan explicit_churn;
  for (const ScenarioEvent& event : scenario.events) {
    if (event.type == ScenarioEvent::Type::kJoin ||
        event.type == ScenarioEvent::Type::kLeave)
      explicit_churn.churn.push_back(
          {event.node, event.round,
           event.type == ScenarioEvent::Type::kJoin});
  }
  std::vector<std::vector<char>> present(
      scenario.fed.rounds, std::vector<char>(scenario.fed.clients, 1));
  for (std::uint64_t r = 0; r < scenario.fed.rounds; ++r)
    for (std::size_t k = 0; k < scenario.fed.clients; ++k)
      present[r][k] = explicit_churn.client_active(k, r) ? 1 : 0;
  return present;
}

}  // namespace

std::string Scenario::check() const {
  if (name.empty()) return "name must be non-empty";
  if (const std::string fed_error = fed.check(); !fed_error.empty())
    return fed_error;
  // fed.check() covers topology ranges but not the filter spec grammar;
  // validate it here so a bad "defense" reports instead of aborting in
  // the aggregator factory mid-run.
  if (const std::string spec_error =
          fl::check_aggregator_spec(fed.client_filter);
      !spec_error.empty())
    return spec_error;
  runtime::FaultPlan topology;
  for (const ScenarioEvent& event : events) {
    if (event.round >= fed.rounds)
      return std::string(type_name(event.type)) + " event at round " +
             std::to_string(event.round) + " is past the last round " +
             std::to_string(fed.rounds - 1);
    switch (event.type) {
      case ScenarioEvent::Type::kJoin:
      case ScenarioEvent::Type::kLeave:
        topology.churn.push_back(
            {event.node, event.round,
             event.type == ScenarioEvent::Type::kJoin});
        break;
      case ScenarioEvent::Type::kPsCrash:
        topology.crashes.push_back({event.node, event.round});
        break;
      case ScenarioEvent::Type::kPsRecover:
        topology.recoveries.push_back({event.node, event.round});
        break;
      case ScenarioEvent::Type::kAttackSwitch:
        if (const std::string bad_name = byz::check_attack_name(event.attack);
            !bad_name.empty())
          return bad_name;
        break;
      case ScenarioEvent::Type::kAlphaDrift:
        if (!(event.value > 0.0))
          return "alpha_drift alpha must be > 0";
        break;
      case ScenarioEvent::Type::kParticipation:
        if (!(event.value > 0.0 && event.value <= 1.0))
          return "participation rate must be in (0, 1]";
        break;
    }
  }
  if (const std::string topo =
          topology.check_topology(fed.clients, fed.servers, fed.rounds);
      !topo.empty())
    return topo;
  // One attack/alpha/participation event per round each — two switches in
  // the same round have no defined order.
  for (std::size_t i = 0; i < events.size(); ++i)
    for (std::size_t j = i + 1; j < events.size(); ++j)
      if (events[i].type == events[j].type &&
          events[i].round == events[j].round &&
          (events[i].type == ScenarioEvent::Type::kAttackSwitch ||
           events[i].type == ScenarioEvent::Type::kAlphaDrift ||
           events[i].type == ScenarioEvent::Type::kParticipation))
        return std::string("two ") + type_name(events[i].type) +
               " events at round " + std::to_string(events[i].round);
  const auto present = presence_matrix(*this);
  for (std::uint64_t r = 0; r < fed.rounds; ++r) {
    bool any = false;
    for (std::size_t k = 0; k < fed.clients; ++k) any |= present[r][k] != 0;
    if (!any)
      return "every client has left by round " + std::to_string(r);
  }
  return "";
}

runtime::FaultPlan Scenario::compile_fault_plan(std::uint64_t seed) const {
  FEDMS_EXPECTS(check().empty());
  runtime::FaultPlan plan;
  for (const ScenarioEvent& event : events) {
    if (event.type == ScenarioEvent::Type::kPsCrash)
      plan.crashes.push_back({event.node, event.round});
    else if (event.type == ScenarioEvent::Type::kPsRecover)
      plan.recoveries.push_back({event.node, event.round});
  }
  // Active = present (explicit join/leave) AND participating (Bernoulli at
  // the rate in force that round). Each draw is keyed by (seed, round,
  // client), so it is independent of membership history and of sibling
  // clients — the stream-discipline contract.
  const auto present = presence_matrix(*this);
  const core::SeedSequence seeds(seed);
  std::vector<std::vector<char>> active = present;
  bool any_participation = false;
  for (std::uint64_t r = 0; r < fed.rounds; ++r) {
    // Latest participation event at or before r wins (keyed on the event
    // round, so the list order in the file is irrelevant).
    double rate = 1.0;
    std::uint64_t best = 0;
    bool found = false;
    for (const ScenarioEvent& event : events) {
      if (event.type != ScenarioEvent::Type::kParticipation ||
          event.round > r)
        continue;
      if (!found || event.round >= best) {
        best = event.round;
        rate = event.value;
      }
      found = true;
    }
    if (!found || rate >= 1.0) continue;
    any_participation = true;
    const core::SeedSequence round_seeds(seeds.derive("participation", r));
    for (std::size_t k = 0; k < fed.clients; ++k) {
      if (!present[r][k]) continue;
      core::Rng rng = round_seeds.make_rng("client", k);
      active[r][k] = rng.bernoulli(rate) ? 1 : 0;
    }
    // Never let a round go dark: keep the lowest-indexed present client.
    bool any = false;
    for (std::size_t k = 0; k < fed.clients; ++k) any |= active[r][k] != 0;
    if (!any)
      for (std::size_t k = 0; k < fed.clients; ++k)
        if (present[r][k]) {
          active[r][k] = 1;
          break;
        }
  }
  // Diff-encode the activity matrix into churn events: a leave at round 0
  // covers clients absent from the start; later rounds emit an event only
  // on a transition. No churn and full participation leave the plan's
  // churn list empty (static membership stays on the fast path).
  bool static_membership = !any_participation;
  for (const ScenarioEvent& event : events)
    static_membership &= event.type != ScenarioEvent::Type::kJoin &&
                         event.type != ScenarioEvent::Type::kLeave;
  if (static_membership) return plan;
  for (std::size_t k = 0; k < fed.clients; ++k) {
    if (!active[0][k]) plan.churn.push_back({k, 0, false});
    for (std::uint64_t r = 1; r < fed.rounds; ++r)
      if (active[r][k] != active[r - 1][k])
        plan.churn.push_back({k, r, active[r][k] != 0});
  }
  return plan;
}

Scenario Scenario::from_json(const Json& json) {
  if (json.type() != Json::Type::kObject)
    bad("top level must be an object");
  Scenario scenario;
  // Scenario defaults differ from the paper's Table-II CLI defaults: a
  // scenario file states its own topology, so start from a small shape
  // and let every key override.
  scenario.fed.clients = 10;
  scenario.fed.servers = 5;
  scenario.fed.byzantine = 1;
  scenario.fed.rounds = 10;
  scenario.fed.attack = "signflip";
  scenario.workload.samples = 512;
  scenario.workload.feature_dimension = 16;
  scenario.workload.batch_size = 16;
  scenario.workload.eval_sample_cap = 128;
  for (const auto& [key, value] : json.members())
    apply_top_level(scenario, key, value);
  if (const std::string error = scenario.check(); !error.empty())
    bad(error);
  return scenario;
}

Scenario Scenario::parse(const std::string& text) {
  return from_json(Json::parse(text));
}

Scenario Scenario::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

}  // namespace fedms::scenario
