#include "testing/schedule.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/rng.h"
#include "core/rounding.h"
#include "core/json_min.h"

namespace fedms::testing {

using core::Json;
using core::json_double;
using core::json_escape;

namespace {

std::string node_text(bool is_server, std::size_t index) {
  // Appending to a std::string, not `const char* + std::string`, which
  // sets off GCC 12's false-positive -Wrestrict in Release builds.
  std::string text(1, is_server ? 's' : 'c');
  text += std::to_string(index);
  return text;
}

void parse_node(const std::string& text, bool* is_server,
                std::size_t* index) {
  if (text.size() < 2 || (text[0] != 'c' && text[0] != 's'))
    throw std::runtime_error("bad node \"" + text +
                             "\" (expected c<i> or s<i>)");
  *is_server = text[0] == 's';
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str() + 1, &end, 10);
  if (end == text.c_str() + 1 || *end != '\0')
    throw std::runtime_error("bad node index in \"" + text + "\"");
  *index = static_cast<std::size_t>(value);
}

std::string u64_text(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

EventAction action_from_string(const std::string& text) {
  if (text == "drop") return EventAction::kDrop;
  if (text == "delay") return EventAction::kDelay;
  if (text == "dup") return EventAction::kDuplicate;
  if (text == "crash") return EventAction::kCrash;
  if (text == "straggler") return EventAction::kStraggler;
  if (text == "join") return EventAction::kJoin;
  if (text == "leave") return EventAction::kLeave;
  if (text == "recover") return EventAction::kRecover;
  throw std::runtime_error("unknown schedule event action \"" + text + "\"");
}

ScheduleKind kind_from_string(const std::string& text) {
  if (text == "parity") return ScheduleKind::kParity;
  if (text == "fault") return ScheduleKind::kFault;
  if (text == "transport") return ScheduleKind::kTransport;
  throw std::runtime_error("unknown schedule kind \"" + text + "\"");
}

}  // namespace

const char* to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kParity: return "parity";
    case ScheduleKind::kFault: return "fault";
    case ScheduleKind::kTransport: return "transport";
  }
  return "?";
}

const char* to_string(EventAction action) {
  switch (action) {
    case EventAction::kDrop: return "drop";
    case EventAction::kDelay: return "delay";
    case EventAction::kDuplicate: return "dup";
    case EventAction::kCrash: return "crash";
    case EventAction::kStraggler: return "straggler";
    case EventAction::kJoin: return "join";
    case EventAction::kLeave: return "leave";
    case EventAction::kRecover: return "recover";
  }
  return "?";
}

std::string ScheduleEvent::to_string() const {
  std::ostringstream os;
  os << testing::to_string(action);
  if (matches_messages()) {
    os << " r" << round << ' ' << node_text(from_server, from) << "->"
       << node_text(to_server, to) << ' ' << kind << '#' << occurrence;
    if (action == EventAction::kDelay) os << " +" << seconds << 's';
  } else if (action == EventAction::kStraggler) {
    os << ' ' << node_text(from_server, from) << " x" << seconds;
  } else {  // crash / join / leave / recover
    os << ' ' << node_text(from_server, from) << "@r" << round;
  }
  return os.str();
}

fl::FedMsConfig FuzzSchedule::fed_config() const {
  fl::FedMsConfig fed;
  fed.clients = clients;
  fed.servers = servers;
  fed.byzantine = byzantine;
  fed.rounds = rounds;
  fed.local_iterations = local_iterations;
  fed.upload = upload;
  fed.client_filter = client_filter;
  fed.attack = attack;
  fed.byzantine_placement = byzantine_placement;
  fed.participation = participation;
  fed.eval_every = 1;
  fed.seed = run_seed;
  return fed;
}

runtime::RuntimeOptions FuzzSchedule::runtime_options() const {
  runtime::RuntimeOptions options;
  options.compute_seconds = compute_seconds;
  options.upload_window_seconds = upload_window_seconds;
  options.broadcast_timeout_seconds = broadcast_timeout_seconds;
  options.max_retries = max_retries;
  options.retry_backoff_seconds = retry_backoff_seconds;
  options.record_trace = true;
  for (const ScheduleEvent& event : events) {
    if (event.action == EventAction::kCrash) {
      options.faults.crashes.push_back(
          runtime::ServerCrash{event.from, event.round});
    } else if (event.action == EventAction::kStraggler) {
      auto& table = event.from_server ? options.faults.server_stragglers
                                      : options.faults.client_stragglers;
      table[event.from] = event.seconds;
    } else if (event.action == EventAction::kRecover) {
      options.faults.recoveries.push_back(
          runtime::ServerRecovery{event.from, event.round});
    } else if (event.action == EventAction::kJoin ||
               event.action == EventAction::kLeave) {
      options.faults.churn.push_back(runtime::ClientChurn{
          event.from, event.round, event.action == EventAction::kJoin});
    }
  }
  // Churn demands join-order-independent client streams; deriving the
  // flag (instead of storing it) keeps it out of the shrink space.
  options.round_keyed_streams = !options.faults.churn.empty();
  return options;
}

std::string FuzzSchedule::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"fedms_fuzz_schedule\": 1,\n";
  os << "  \"seed\": \"" << u64_text(seed) << "\",\n";
  os << "  \"kind\": \"" << testing::to_string(kind) << "\",\n";
  os << "  \"clients\": " << clients << ",\n";
  os << "  \"servers\": " << servers << ",\n";
  os << "  \"byzantine\": " << byzantine << ",\n";
  os << "  \"rounds\": " << rounds << ",\n";
  os << "  \"local_iterations\": " << local_iterations << ",\n";
  os << "  \"upload\": \"" << json_escape(upload) << "\",\n";
  os << "  \"client_filter\": \"" << json_escape(client_filter) << "\",\n";
  os << "  \"attack\": \"" << json_escape(attack) << "\",\n";
  os << "  \"byzantine_placement\": \"" << json_escape(byzantine_placement)
     << "\",\n";
  os << "  \"participation\": " << json_double(participation) << ",\n";
  os << "  \"run_seed\": \"" << u64_text(run_seed) << "\",\n";
  os << "  \"data_seed\": \"" << u64_text(data_seed) << "\",\n";
  os << "  \"rounding_mode\": \"" << json_escape(rounding_mode) << "\",\n";
  os << "  \"compute_seconds\": " << json_double(compute_seconds) << ",\n";
  os << "  \"upload_window_seconds\": " << json_double(upload_window_seconds)
     << ",\n";
  os << "  \"broadcast_timeout_seconds\": "
     << json_double(broadcast_timeout_seconds) << ",\n";
  os << "  \"max_retries\": " << max_retries << ",\n";
  os << "  \"retry_backoff_seconds\": " << json_double(retry_backoff_seconds)
     << ",\n";
  os << "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ScheduleEvent& e = events[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"action\": \""
       << testing::to_string(e.action) << "\"";
    if (e.matches_messages()) {
      os << ", \"round\": " << e.round << ", \"from\": \""
         << node_text(e.from_server, e.from) << "\", \"to\": \""
         << node_text(e.to_server, e.to) << "\", \"kind\": \""
         << json_escape(e.kind) << "\", \"occurrence\": " << e.occurrence;
      if (e.action == EventAction::kDelay)
        os << ", \"seconds\": " << json_double(e.seconds);
    } else if (e.action == EventAction::kStraggler) {
      os << ", \"node\": \"" << node_text(e.from_server, e.from)
         << "\", \"factor\": " << json_double(e.seconds);
    } else {  // crash / join / leave / recover
      os << ", \"node\": \"" << node_text(e.from_server, e.from)
         << "\", \"round\": " << e.round;
    }
    os << "}";
  }
  os << (events.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

FuzzSchedule FuzzSchedule::from_json(const std::string& text) {
  const Json root = Json::parse(text);
  FuzzSchedule s;
  s.seed = root.at("seed").as_u64();
  s.kind = kind_from_string(root.at("kind").as_string());
  s.clients = root.at("clients").as_size();
  s.servers = root.at("servers").as_size();
  s.byzantine = root.at("byzantine").as_size();
  s.rounds = root.at("rounds").as_size();
  s.local_iterations = root.at("local_iterations").as_size();
  s.upload = root.at("upload").as_string();
  s.client_filter = root.at("client_filter").as_string();
  s.attack = root.at("attack").as_string();
  s.byzantine_placement = root.at("byzantine_placement").as_string();
  s.participation = root.at("participation").as_number();
  s.run_seed = root.at("run_seed").as_u64();
  s.data_seed = root.at("data_seed").as_u64();
  // Older repro files predate the numerics axis; they ran under nearest.
  if (const Json* mode = root.find("rounding_mode")) {
    s.rounding_mode = mode->as_string();
    int parsed = 0;
    if (!core::parse_rounding_mode(s.rounding_mode, &parsed))
      throw std::runtime_error("unknown rounding_mode \"" + s.rounding_mode +
                               "\" (nearest|upward|downward|towardzero)");
  }
  s.compute_seconds = root.at("compute_seconds").as_number();
  s.upload_window_seconds = root.at("upload_window_seconds").as_number();
  s.broadcast_timeout_seconds =
      root.at("broadcast_timeout_seconds").as_number();
  s.max_retries = root.at("max_retries").as_size();
  s.retry_backoff_seconds = root.at("retry_backoff_seconds").as_number();
  for (const Json& item : root.at("events").items()) {
    ScheduleEvent e;
    e.action = action_from_string(item.at("action").as_string());
    if (e.matches_messages()) {
      e.round = item.at("round").as_size();
      parse_node(item.at("from").as_string(), &e.from_server, &e.from);
      parse_node(item.at("to").as_string(), &e.to_server, &e.to);
      e.kind = item.at("kind").as_string();
      e.occurrence = item.at("occurrence").as_size();
      if (const Json* seconds = item.find("seconds"))
        e.seconds = seconds->as_number();
    } else {
      parse_node(item.at("node").as_string(), &e.from_server, &e.from);
      if (e.action == EventAction::kStraggler)
        e.seconds = item.at("factor").as_number();
      else
        e.round = item.at("round").as_size();
    }
    s.events.push_back(std::move(e));
  }
  // Re-validate everything that reaches contract-checked constructors, so
  // a hand-edited repro file reports instead of aborting.
  if (const std::string error = s.fed_config().check(); !error.empty())
    throw std::runtime_error("repro schedule invalid: " + error);
  if (const std::string error = s.check_events(); !error.empty())
    throw std::runtime_error("repro schedule invalid: " + error);
  return s;
}

std::string FuzzSchedule::check_events() const {
  const runtime::FaultPlan plan = runtime_options().faults;
  if (const std::string topo = plan.check_topology(
          clients, servers, std::numeric_limits<std::uint64_t>::max());
      !topo.empty())
    return topo;
  if (!plan.churn.empty())
    for (std::uint64_t r = 0; r < rounds; ++r)
      if (plan.active_client_count(clients, r) == 0)
        return "every client has left by round " + std::to_string(r);
  return "";
}

FuzzSchedule generate_schedule(std::uint64_t seed) {
  const core::SeedSequence seeds(seed);
  core::Rng rng = seeds.make_rng("fuzz-schedule");
  FuzzSchedule s;
  s.seed = seed;

  // Numerics axis on its own stream: consuming a draw from the main
  // schedule RNG would shift every later draw and silently rewrite the
  // schedule of every historical corpus seed. Biased toward nearest (the
  // production mode) with each directed mode at 10%.
  {
    core::Rng mode_rng = seeds.make_rng("fuzz-rounding-mode");
    const double mode_draw = mode_rng.uniform();
    s.rounding_mode = mode_draw < 0.70   ? "nearest"
                      : mode_draw < 0.80 ? "upward"
                      : mode_draw < 0.90 ? "downward"
                                         : "towardzero";
  }

  const double kind_draw = rng.uniform();
  s.kind = kind_draw < 0.45   ? ScheduleKind::kParity
           : kind_draw < 0.88 ? ScheduleKind::kFault
                              : ScheduleKind::kTransport;

  if (s.kind == ScheduleKind::kTransport) {
    // Tiny NN workload over real threads — keep the topology small.
    s.clients = 2 + rng.uniform_index(3);  // 2..4
    s.servers = 2 + rng.uniform_index(2);  // 2..3
    s.rounds = 2;
  } else {
    s.clients = 2 + rng.uniform_index(6);  // 2..7
    s.servers = 2 + rng.uniform_index(5);  // 2..6
    s.rounds = 1 + rng.uniform_index(3);   // 1..3
  }
  // Strict minority: 2B < P (B = 0 included — the benign corner).
  s.byzantine = rng.uniform_index((s.servers + 1) / 2);
  s.local_iterations = 1 + rng.uniform_index(3);

  const char* uploads[] = {"sparse", "sparse", "full", "roundrobin",
                           "multi:2"};
  s.upload = uploads[rng.uniform_index(5)];

  // Client filter: mostly the paper's coupled trmean (β = B/P), sometimes
  // an over-trimming β, sometimes the undefended mean baseline.
  const double filter_draw = rng.uniform();
  char beta_text[32];
  if (filter_draw < 0.70) {
    std::snprintf(beta_text, sizeof beta_text, "trmean:%.6g",
                  double(s.byzantine) / double(s.servers));
    s.client_filter = beta_text;
  } else if (filter_draw < 0.85) {
    const double beta =
        std::min(0.49, double(s.byzantine + 1) / double(s.servers));
    std::snprintf(beta_text, sizeof beta_text, "trmean:%.6g", beta);
    s.client_filter = beta_text;
  } else {
    s.client_filter = "mean";
  }

  // Defense-zoo axis on its own stream (same rationale as the numerics
  // axis: a draw from the main RNG would shift every later draw and
  // rewrite the schedule of every historical corpus seed). A fraction of
  // parity/fault cases swap the trmean/mean filter for another zoo
  // member; the transport kind keeps the paper's filters — its oracle
  // asserts exact cross-engine equality on a real NN workload, so the
  // cheap filters keep that lane fast while parity/fault cover the zoo.
  {
    core::Rng defense_rng = seeds.make_rng("fuzz-defense");
    if (s.kind != ScheduleKind::kTransport && defense_rng.uniform() < 0.35) {
      const std::size_t keep =
          s.servers > 2 * s.byzantine ? s.servers - 2 * s.byzantine : 1;
      std::vector<std::string> zoo = {
          "median", "geomedian", "adaptive",
          "krum:" + std::to_string(s.byzantine),
          "multikrum:" + std::to_string(s.byzantine) + ":" +
              std::to_string(keep),
          "fedgreed:" + std::to_string(keep)};
      if (s.servers >= 4 * s.byzantine + 3)
        zoo.push_back("bulyan:" + std::to_string(s.byzantine));
      s.client_filter = zoo[defense_rng.uniform_index(zoo.size())];
    }
  }

  if (s.byzantine == 0) {
    s.attack = "benign";
  } else if (s.kind == ScheduleKind::kTransport) {
    // The transport path asserts exact eval/CRC equality, so keep attacks
    // finite and non-silent (NaN metrics never compare equal to
    // themselves; a silent PS thins candidate sets).
    const char* attacks[] = {"noise",     "random", "safeguard",
                             "backward",  "zero",   "signflip",
                             "collusion", "alie",   "edgeoftrim",
                             "inconsistent"};
    s.attack = attacks[rng.uniform_index(10)];
  } else if (s.kind == ScheduleKind::kParity) {
    // No "crash": a silent PS leaves clients short of the async quorum
    // while the sync loop happily filters the thinner set — a real
    // semantic difference, not a parity bug.
    const char* attacks[] = {"benign",   "noise", "random",   "safeguard",
                             "backward", "zero",  "signflip", "collusion",
                             "nan",      "alie",  "edgeoftrim",
                             "inconsistent"};
    s.attack = attacks[rng.uniform_index(12)];
  } else {
    const char* attacks[] = {"benign",    "noise", "random",   "safeguard",
                             "backward",  "zero",  "signflip", "collusion",
                             "nan",       "crash", "alie",     "edgeoftrim",
                             "inconsistent"};
    s.attack = attacks[rng.uniform_index(13)];
  }
  s.byzantine_placement = rng.uniform() < 0.8 ? "first" : "random";

  s.run_seed = rng() | 1;  // nonzero
  s.data_seed = rng() | 1;

  // Partial participation, drawn the same way for both fault-free kinds.
  const auto draw_participation = [&] {
    if (rng.uniform() < 0.4)
      s.participation = 0.5 + 0.25 * rng.uniform_index(2);  // 0.5 | 0.75
  };
  if (s.kind == ScheduleKind::kTransport) {
    draw_participation();
    return s;  // fault-free by construction; defaults for the windows
  }

  // Timeout windows (loose enough that the fault-free parity case always
  // beats every deadline: compute + ~0.011 s transfer < upload window).
  const double windows[] = {0.15, 0.25, 0.4};
  s.upload_window_seconds = windows[rng.uniform_index(3)];
  s.broadcast_timeout_seconds = windows[rng.uniform_index(3)];
  s.max_retries = rng.uniform_index(3);  // 0..2
  if (s.kind == ScheduleKind::kParity) {
    // Drawn after every other parity field, so no field of an existing
    // corpus schedule moves.
    draw_participation();
    return s;
  }

  // kFault: explicit scripted events.
  const std::size_t message_events = rng.uniform_index(7);  // 0..6
  for (std::size_t i = 0; i < message_events; ++i) {
    ScheduleEvent e;
    const double action_draw = rng.uniform();
    e.action = action_draw < 0.45   ? EventAction::kDrop
               : action_draw < 0.80 ? EventAction::kDelay
                                    : EventAction::kDuplicate;
    e.round = rng.uniform_index(s.rounds);
    const double direction = rng.uniform();
    if (direction < 0.55) {  // broadcast: server -> client
      e.from_server = true;
      e.from = rng.uniform_index(s.servers);
      e.to_server = false;
      e.to = rng.uniform_index(s.clients);
      e.kind = rng.uniform() < 0.8 ? "broadcast" : "any";
    } else {  // upload: client -> server
      e.from_server = false;
      e.from = rng.uniform_index(s.clients);
      e.to_server = true;
      e.to = rng.uniform_index(s.servers);
      e.kind = rng.uniform() < 0.8 ? "upload" : "any";
    }
    e.occurrence = rng.uniform() < 0.85 ? 0 : 1;
    if (e.action == EventAction::kDelay) {
      const double delays[] = {0.05, 0.2, 0.5, 1.0};
      e.seconds = delays[rng.uniform_index(4)];
    }
    s.events.push_back(std::move(e));
  }
  if (rng.uniform() < 0.3) {  // a crashed PS, sometimes with a recovery
    ScheduleEvent e;
    e.action = EventAction::kCrash;
    e.from_server = true;
    e.from = rng.uniform_index(s.servers);
    e.round = rng.uniform_index(s.rounds);
    const std::size_t crashed = e.from;
    const std::uint64_t crash_round = e.round;
    s.events.push_back(std::move(e));
    if (crash_round + 1 < s.rounds && rng.uniform() < 0.5) {
      ScheduleEvent r;
      r.action = EventAction::kRecover;
      r.from_server = true;
      r.from = crashed;
      r.round = crash_round + 1 +
                rng.uniform_index(s.rounds - crash_round - 1);
      s.events.push_back(std::move(r));
    }
  }
  if (s.clients >= 3 && rng.uniform() < 0.35) {
    // Client churn: one client leaves, maybe rejoining later. Limiting
    // churn to a single client keeps >= 1 client active in every round
    // by construction (the runtime rejects an all-absent round).
    ScheduleEvent e;
    e.action = EventAction::kLeave;
    e.from_server = false;
    e.from = rng.uniform_index(s.clients);
    e.round = rng.uniform_index(s.rounds);
    const std::size_t churned = e.from;
    const std::uint64_t leave_round = e.round;
    s.events.push_back(std::move(e));
    if (leave_round + 1 < s.rounds && rng.uniform() < 0.6) {
      ScheduleEvent j;
      j.action = EventAction::kJoin;
      j.from_server = false;
      j.from = churned;
      j.round = leave_round + 1 +
                rng.uniform_index(s.rounds - leave_round - 1);
      s.events.push_back(std::move(j));
    }
  }
  if (rng.uniform() < 0.35) {  // a straggling client
    ScheduleEvent e;
    e.action = EventAction::kStraggler;
    e.from_server = false;
    e.from = rng.uniform_index(s.clients);
    e.seconds = 1.5 + rng.uniform() * 3.0;
    s.events.push_back(std::move(e));
  }
  if (rng.uniform() < 0.15) {  // a straggling server
    ScheduleEvent e;
    e.action = EventAction::kStraggler;
    e.from_server = true;
    e.from = rng.uniform_index(s.servers);
    e.seconds = 1.5 + rng.uniform() * 2.0;
    s.events.push_back(std::move(e));
  }
  return s;
}

ScriptedFaults::ScriptedFaults(const FuzzSchedule& schedule) {
  for (const ScheduleEvent& event : schedule.events)
    if (event.matches_messages()) entries_.push_back(Entry{event, 0});
}

void ScriptedFaults::reset() {
  for (Entry& entry : entries_) entry.seen = 0;
}

runtime::MessageHook ScriptedFaults::hook() {
  return [this](const runtime::MessageEvent& m)
             -> std::optional<runtime::FaultInjector::LinkFate> {
    const char* kind = m.kind == net::MessageKind::kModelUpload ? "upload"
                       : m.kind == net::MessageKind::kModelBroadcast
                           ? "broadcast"
                           : "retry";
    std::optional<runtime::FaultInjector::LinkFate> fate;
    for (Entry& entry : entries_) {
      const ScheduleEvent& e = entry.event;
      if (e.round != m.round) continue;
      if (e.from_server != (m.from.kind == net::NodeKind::kServer) ||
          e.from != m.from.index)
        continue;
      if (e.to_server != (m.to.kind == net::NodeKind::kServer) ||
          e.to != m.to.index)
        continue;
      if (e.kind != "any" && e.kind != kind) continue;
      if (entry.seen++ != e.occurrence) continue;
      if (!fate) fate.emplace();
      switch (e.action) {
        case EventAction::kDrop: fate->dropped = true; break;
        case EventAction::kDelay: fate->extra_delay += e.seconds; break;
        case EventAction::kDuplicate: fate->copies = 2; break;
        default: break;
      }
    }
    return fate;
  };
}

}  // namespace fedms::testing
