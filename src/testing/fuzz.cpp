#include "testing/fuzz.h"

#include <cfenv>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "byz/attack.h"
#include "core/rounding.h"
#include "data/convex.h"
#include "fl/experiment.h"
#include "fl/fedms.h"
#include "fl/quadratic_learner.h"
#include "obs/obs.h"
#include "runtime/async_fedms.h"
#include "core/json_min.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/transport.h"

namespace fedms::testing {

using core::Json;
using core::json_escape;

namespace {

std::string format(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

bool bits_equal(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof a);
  std::memcpy(&y, &b, sizeof b);
  return x == y;
}

bool bits_equal(const std::optional<double>& a,
                const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || bits_equal(*a, *b);
}

// Every round's participant mask, replayed from the run's "participation"
// stream as each engine draws it — the trace oracle's expectations.
std::vector<std::vector<bool>> participant_masks(const fl::FedMsConfig& fed) {
  core::Rng rng = core::SeedSequence(fed.seed).make_rng("participation");
  std::vector<std::vector<bool>> masks;
  for (std::size_t r = 0; r < fed.rounds; ++r)
    masks.push_back(fl::draw_participants(fed, rng));
  return masks;
}

// The convex workload both async kinds run on (the runtime acceptance
// tests' problem shape, sized by the schedule).
data::QuadraticProblem make_problem(const FuzzSchedule& schedule) {
  data::QuadraticProblemConfig config;
  config.clients = schedule.clients;
  config.dimension = 16;
  config.heterogeneity = 0.5;
  config.gradient_noise = 0.5;
  core::Rng rng(schedule.data_seed);
  return data::QuadraticProblem(config, rng);
}

std::vector<fl::LearnerPtr> make_learners(
    const data::QuadraticProblem& problem, const fl::FedMsConfig& fed) {
  const core::SeedSequence seeds(fed.seed);
  std::vector<fl::LearnerPtr> learners;
  learners.reserve(problem.clients());
  for (std::size_t k = 0; k < problem.clients(); ++k)
    learners.push_back(std::make_unique<fl::QuadraticLearner>(
        problem, k, fed.local_iterations, seeds.make_rng("grad-noise", k),
        /*initial_value=*/3.0f));
  return learners;
}

// Per-run filter observer: applies the optional under-trim plant, checks
// the envelope/finiteness oracle, and samples candidate models for the
// wire oracle.
struct FilterObserver {
  std::vector<bool> is_byzantine;
  bool attack_nonfinite = false;
  bool inject = false;
  bool inject_drift = false;
  bool inject_adaptive = false;
  bool adaptive_filter = false;  // the schedule's filter is adaptive[:...]
  std::size_t servers = 0;
  double beta = -1.0;  // < 0: filter is not trmean, never inject

  std::optional<OracleViolation> violation;
  std::size_t filter_events = 0;
  std::vector<fl::ModelVector> wire_sample;

  FilterObserver(const FuzzSchedule& schedule, const FuzzOptions& options)
      : is_byzantine(fl::byzantine_servers(schedule.fed_config())),
        attack_nonfinite(byz::attack_traits(schedule.attack).nonfinite),
        inject(options.inject_under_trim),
        inject_drift(options.inject_mode_drift),
        inject_adaptive(options.inject_adaptive_undertrim),
        adaptive_filter(schedule.client_filter.rfind("adaptive", 0) == 0),
        servers(schedule.servers) {
    if (const auto b = fl::trmean_beta(schedule.client_filter)) beta = *b;
  }

  runtime::FilterHook hook() {
    return [this](const runtime::FilterEvent& event) {
      ++filter_events;
      if (inject && beta >= 0.0 && event.trim != fl::kNoTrim &&
          event.candidates.size() < servers) {
        // The PR 4 bug: re-derive the trim from β over the thinned set.
        const std::size_t bad =
            fl::beta_trim_count(beta, event.candidates.size());
        if (bad < event.trim && event.candidates.size() > 2 * bad)
          event.filtered = fl::trimmed_mean(event.candidates, bad);
      }
      if (inject_adaptive && adaptive_filter &&
          event.trim != fl::kNoTrim && event.trim > 0 &&
          event.candidates.size() > 2 * (event.trim - 1)) {
        // The estimator-under-shoot plant: the filtered model is rebuilt
        // with one trim fewer than the (honest, reported) estimate B̂.
        // Whenever B̂ exactly covered the Byzantine candidates, the
        // envelope oracle now sees an attacked value inside the mean.
        event.filtered = fl::trimmed_mean(event.candidates, event.trim - 1);
      }
      if (inject_drift && event.trim != fl::kNoTrim) {
        // The mode-drift plant: recompute the filter with the rounding
        // mode pinned to nearest while the run itself executes under the
        // schedule's ambient mode. When that mode is "nearest" this is a
        // bitwise no-op (the determinism contract guarantees recomputing
        // yields identical bits); under any directed mode the double sums
        // land on different ulps and the parity oracle catches the drift.
        const core::ScopedRoundingMode nearest(FE_TONEAREST);
        event.filtered = fl::trimmed_mean(event.candidates, event.trim);
      }
      if (wire_sample.size() < 3 && !event.candidates.empty())
        wire_sample.push_back(event.candidates.front());
      if (!violation)
        violation = check_filter_event(event, is_byzantine,
                                       attack_nonfinite);
    };
  }
};

using RoundCrcs = std::vector<std::vector<std::uint32_t>>;  // [round][client]

// Records every round's per-client model CRCs through `run`'s callback.
template <typename Run>
void capture_round_crcs(Run& run, RoundCrcs& crcs) {
  run.set_round_callback(
      [&crcs](std::uint64_t, const std::vector<fl::LearnerPtr>& learners) {
        crcs.emplace_back();
        for (const auto& learner : learners)
          crcs.back().push_back(
              transport::crc32c_floats(learner->parameters()));
      });
}

struct AsyncCapture {
  runtime::AsyncRunResult result;
  RoundCrcs round_crcs;
};

AsyncCapture run_async(const FuzzSchedule& schedule,
                       const data::QuadraticProblem& problem,
                       const runtime::RuntimeOptions& options,
                       FilterObserver* observer,
                       ScriptedFaults* scripted) {
  const fl::FedMsConfig fed = schedule.fed_config();
  AsyncCapture capture;
  runtime::AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  if (scripted != nullptr) {
    scripted->reset();
    run.set_message_hook(scripted->hook());
  }
  if (observer != nullptr) run.set_filter_hook(observer->hook());
  capture_round_crcs(run, capture.round_crcs);
  capture.result = run.run();
  return capture;
}

FuzzOutcome run_parity(const FuzzSchedule& schedule,
                       const FuzzOptions& options) {
  const fl::FedMsConfig fed = schedule.fed_config();
  const data::QuadraticProblem problem = make_problem(schedule);

  // Sync baseline.
  RoundCrcs sync_crcs;
  fl::FedMsRun sync(fed, make_learners(problem, fed));
  capture_round_crcs(sync, sync_crcs);
  const fl::RunResult sync_result = sync.run();

  // Async run with telemetry spans captured for the stage-order oracle.
  FilterObserver observer(schedule, options);
  obs::reset();
  obs::set_enabled(true);
  const AsyncCapture async =
      run_async(schedule, problem, schedule.runtime_options(), &observer,
                /*scripted=*/nullptr);
  const std::vector<obs::SpanRecord> spans = obs::snapshot_spans();
  obs::set_enabled(false);

  FuzzOutcome outcome;
  outcome.trace_hash = async.result.trace_hash;
  outcome.filter_events = observer.filter_events;
  if (observer.violation) {
    outcome.violation = observer.violation;
    return outcome;
  }

  // Differential agreement, bit for bit.
  for (std::size_t r = 0; r < schedule.rounds; ++r) {
    for (std::size_t k = 0; k < schedule.clients; ++k) {
      if (sync_crcs[r][k] != async.round_crcs[r][k]) {
        outcome.violation = OracleViolation{
            "parity",
            format("r%zu client %zu: sync/async model CRC mismatch "
                   "(%08x vs %08x)",
                   r, k, sync_crcs[r][k], async.round_crcs[r][k])};
        return outcome;
      }
    }
    const fl::RoundRecord& s = sync_result.rounds[r];
    const fl::RoundRecord& a = async.result.rounds[r].base;
    if (!bits_equal(s.train_loss, a.train_loss) ||
        !bits_equal(s.eval_loss, a.eval_loss) ||
        !bits_equal(s.eval_accuracy, a.eval_accuracy)) {
      outcome.violation = OracleViolation{
          "parity", format("r%zu: sync/async loss or eval metrics "
                           "diverge (train %.17g vs %.17g)",
                           r, s.train_loss, a.train_loss)};
      return outcome;
    }
    if (s.uplink_bytes != a.uplink_bytes ||
        s.uplink_messages != a.uplink_messages ||
        s.downlink_bytes != a.downlink_bytes ||
        s.downlink_messages != a.downlink_messages) {
      outcome.violation = OracleViolation{
          "parity",
          format("r%zu: sync/async traffic accounting diverges "
                 "(up %llu/%llu vs %llu/%llu bytes/messages)",
                 r, static_cast<unsigned long long>(s.uplink_bytes),
                 static_cast<unsigned long long>(s.uplink_messages),
                 static_cast<unsigned long long>(a.uplink_bytes),
                 static_cast<unsigned long long>(a.uplink_messages))};
      return outcome;
    }
  }

  const std::vector<std::vector<bool>> participants =
      participant_masks(fed);
  outcome.violation =
      check_trace_causality(async.result.trace, schedule.clients,
                            schedule.rounds, nullptr, &participants);
  if (!outcome.violation)
    outcome.violation = check_canonical_stage_order(spans, "async");
  if (!outcome.violation)
    outcome.violation = check_wire_roundtrip(observer.wire_sample);
  return outcome;
}

FuzzOutcome run_fault(const FuzzSchedule& schedule,
                      const FuzzOptions& options) {
  const data::QuadraticProblem problem = make_problem(schedule);
  ScriptedFaults scripted(schedule);

  // The causality oracle always scores membership against the scheduled
  // plan; the ghost-churn plant makes execution disagree with it by
  // dropping the churn events (round-keyed streams stay on — they were
  // derived before the strip — so only membership bookkeeping desyncs).
  const runtime::RuntimeOptions scheduled = schedule.runtime_options();
  runtime::RuntimeOptions executed = scheduled;
  if (options.inject_ghost_churn) executed.faults.churn.clear();

  FilterObserver first_observer(schedule, options);
  const AsyncCapture first =
      run_async(schedule, problem, executed, &first_observer, &scripted);
  // Replay determinism: the exact run again (fresh learners, reset event
  // counters, same hooks including any planted bug).
  FilterObserver second_observer(schedule, options);
  const AsyncCapture second =
      run_async(schedule, problem, executed, &second_observer, &scripted);

  FuzzOutcome outcome;
  outcome.trace_hash = first.result.trace_hash;
  outcome.filter_events = first_observer.filter_events;
  if (first_observer.violation) {
    outcome.violation = first_observer.violation;
    return outcome;
  }

  if (first.result.trace_hash != second.result.trace_hash) {
    outcome.violation = OracleViolation{
        "determinism",
        format("trace hash differs across identical runs "
               "(%016llx vs %016llx)",
               static_cast<unsigned long long>(first.result.trace_hash),
               static_cast<unsigned long long>(second.result.trace_hash))};
    return outcome;
  }
  for (std::size_t i = 0;
       i < std::min(first.result.trace.size(), second.result.trace.size());
       ++i) {
    if (first.result.trace[i] != second.result.trace[i]) {
      outcome.violation = OracleViolation{
          "determinism", format("trace diverges at line %zu: \"%s\" vs "
                                "\"%s\"",
                                i, first.result.trace[i].c_str(),
                                second.result.trace[i].c_str())};
      return outcome;
    }
  }
  if (first.round_crcs != second.round_crcs) {
    outcome.violation = OracleViolation{
        "determinism", "per-round model CRCs differ across identical runs"};
    return outcome;
  }

  const std::vector<std::vector<bool>> participants =
      participant_masks(schedule.fed_config());
  outcome.violation =
      check_trace_causality(first.result.trace, schedule.clients,
                            schedule.rounds, &scheduled.faults, &participants);
  if (!outcome.violation)
    outcome.violation = check_wire_roundtrip(first_observer.wire_sample);
  return outcome;
}

FuzzOutcome run_transport(const FuzzSchedule& schedule) {
  const fl::FedMsConfig fed = schedule.fed_config();
  fl::WorkloadConfig workload;
  workload.samples = 320;
  workload.model = "mlp";
  workload.mlp_hidden = {8};

  RoundCrcs round_crcs;
  fl::Experiment experiment = fl::make_experiment(workload, fed);
  capture_round_crcs(*experiment.run, round_crcs);
  const fl::RunResult sync_result = experiment.run->run();
  const std::vector<std::uint32_t>& sync_crcs = round_crcs.back();

  transport::InMemoryHub hub;
  hub.set_deterministic(true);
  const transport::TransportRunSummary summary =
      transport::run_transport_experiment(workload, fed, hub);

  FuzzOutcome outcome;
  const fl::RoundRecord& final_eval = sync_result.final_eval();
  if (!bits_equal(summary.mean_accuracy(), *final_eval.eval_accuracy) ||
      !bits_equal(summary.mean_eval_loss(), *final_eval.eval_loss)) {
    outcome.violation = OracleViolation{
        "transport",
        format("final eval diverges: accuracy %.17g vs %.17g",
               summary.mean_accuracy(), *final_eval.eval_accuracy)};
    return outcome;
  }
  for (std::size_t k = 0; k < summary.clients.size(); ++k) {
    if (summary.clients[k].model_crc != sync_crcs[k]) {
      outcome.violation = OracleViolation{
          "transport", format("client %zu final model CRC mismatch "
                              "(%08x vs %08x)",
                              k, summary.clients[k].model_crc,
                              sync_crcs[k])};
      return outcome;
    }
  }
  const auto totals = summary.data_totals();
  if (totals.uplink_messages != sync_result.uplink_total.messages ||
      totals.uplink_bytes != sync_result.uplink_total.bytes ||
      totals.downlink_messages != sync_result.downlink_total.messages ||
      totals.downlink_bytes != sync_result.downlink_total.bytes ||
      summary.corrupt_frames() != 0) {
    outcome.violation = OracleViolation{
        "transport",
        format("data-byte accounting diverges (up %llu/%llu vs "
               "%llu/%llu, corrupt %llu)",
               static_cast<unsigned long long>(totals.uplink_bytes),
               static_cast<unsigned long long>(totals.uplink_messages),
               static_cast<unsigned long long>(
                   sync_result.uplink_total.bytes),
               static_cast<unsigned long long>(
                   sync_result.uplink_total.messages),
               static_cast<unsigned long long>(summary.corrupt_frames()))};
    return outcome;
  }
  return outcome;
}

}  // namespace

FuzzOutcome run_schedule(const FuzzSchedule& schedule,
                         const FuzzOptions& options) {
  // Entire case — both execution paths and every oracle — runs under the
  // schedule's rounding mode; the caller's ambient mode is restored on
  // exit, so a corpus sweep can interleave modes freely.
  int fenv_mode = FE_TONEAREST;
  if (!core::parse_rounding_mode(schedule.rounding_mode, &fenv_mode))
    throw std::runtime_error("unknown rounding_mode \"" +
                             schedule.rounding_mode + "\"");
  const core::ScopedRoundingMode scoped(fenv_mode);
  switch (schedule.kind) {
    case ScheduleKind::kParity: return run_parity(schedule, options);
    case ScheduleKind::kFault: return run_fault(schedule, options);
    case ScheduleKind::kTransport: return run_transport(schedule);
  }
  return {};
}

std::string repro_json(const FuzzSchedule& schedule,
                       const OracleViolation& violation,
                       const FuzzOptions& options) {
  const std::string text = schedule.to_json();
  const std::size_t brace = text.rfind('}');
  std::ostringstream extra;
  extra << "  ,\"repro\": {\"oracle\": \"" << json_escape(violation.oracle)
        << "\", \"detail\": \"" << json_escape(violation.detail)
        << "\", \"inject_under_trim\": "
        << (options.inject_under_trim ? "true" : "false")
        << ", \"inject_ghost_churn\": "
        << (options.inject_ghost_churn ? "true" : "false")
        << ", \"inject_mode_drift\": "
        << (options.inject_mode_drift ? "true" : "false")
        << ", \"inject_adaptive_undertrim\": "
        << (options.inject_adaptive_undertrim ? "true" : "false") << "}\n";
  return text.substr(0, brace) + extra.str() + "}\n";
}

Repro load_repro(const std::string& text) {
  Repro repro;
  repro.schedule = FuzzSchedule::from_json(text);
  const Json root = Json::parse(text);
  if (const Json* r = root.find("repro")) {
    repro.oracle = r->at("oracle").as_string();
    repro.detail = r->at("detail").as_string();
    repro.options.inject_under_trim =
        r->at("inject_under_trim").as_bool();
    // find(): repro files written before these plants existed stay
    // loadable.
    if (const Json* ghost = r->find("inject_ghost_churn"))
      repro.options.inject_ghost_churn = ghost->as_bool();
    if (const Json* drift = r->find("inject_mode_drift"))
      repro.options.inject_mode_drift = drift->as_bool();
    if (const Json* undertrim = r->find("inject_adaptive_undertrim"))
      repro.options.inject_adaptive_undertrim = undertrim->as_bool();
  }
  return repro;
}

FuzzSchedule shrink_schedule(const FuzzSchedule& schedule,
                             const FuzzOptions& options,
                             const std::string& oracle, std::size_t* runs) {
  FuzzSchedule best = schedule;
  bool improved = true;
  while (improved && !best.events.empty()) {
    improved = false;
    for (std::size_t i = 0; i < best.events.size(); ++i) {
      FuzzSchedule candidate = best;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      // Deleting one event can orphan another (a recover whose crash is
      // gone, a round with every client churned out); such candidates are
      // not legal schedules — skip them instead of letting the runtime's
      // contract checks abort mid-shrink.
      if (!candidate.check_events().empty()) continue;
      if (runs != nullptr) ++*runs;
      const FuzzOutcome outcome = run_schedule(candidate, options);
      if (outcome.violation && outcome.violation->oracle == oracle) {
        best = std::move(candidate);
        improved = true;
        break;  // restart the scan over the smaller schedule
      }
    }
  }
  return best;
}

FuzzSchedule under_trim_scenario() {
  FuzzSchedule s;
  s.seed = 0;
  s.kind = ScheduleKind::kFault;
  s.clients = 2;
  s.servers = 5;
  s.byzantine = 1;
  s.rounds = 1;
  s.local_iterations = 1;
  s.upload = "full";
  s.client_filter = "trmean:0.2";
  s.attack = "signflip";
  s.byzantine_placement = "first";
  s.run_seed = 0x5eed0001;
  s.data_seed = 0x5eed0002;
  ScheduleEvent drop;
  drop.action = EventAction::kDrop;
  drop.round = 0;
  drop.from_server = true;
  drop.from = 4;  // an honest PS (placement "first" makes PS 0 Byzantine)
  drop.to_server = false;
  drop.to = 0;
  drop.kind = "broadcast";
  drop.occurrence = 0;
  s.events.push_back(drop);
  return s;
}

FuzzSchedule adaptive_under_trim_scenario() {
  FuzzSchedule s;
  s.seed = 0;
  s.kind = ScheduleKind::kFault;
  s.clients = 2;
  s.servers = 5;
  s.byzantine = 1;
  s.rounds = 1;
  s.local_iterations = 1;
  s.upload = "full";
  s.client_filter = "adaptive";
  s.attack = "signflip";
  s.byzantine_placement = "first";
  s.run_seed = 0x5eed0007;
  s.data_seed = 0x5eed0008;
  // Decoy the shrinker must strip: the estimator sees all five candidates
  // either way (client 1 merely loses one honest broadcast), so the
  // violation survives the drop's removal and the minimal schedule is
  // event-free — the plant lives in the estimator, not the fault plan.
  ScheduleEvent drop;
  drop.action = EventAction::kDrop;
  drop.round = 0;
  drop.from_server = true;
  drop.from = 4;  // an honest PS (placement "first" makes PS 0 Byzantine)
  drop.to_server = false;
  drop.to = 1;
  drop.kind = "broadcast";
  drop.occurrence = 0;
  s.events.push_back(drop);
  return s;
}

FuzzSchedule churn_ghost_scenario() {
  FuzzSchedule s;
  s.seed = 0;
  s.kind = ScheduleKind::kFault;
  s.clients = 3;
  s.servers = 3;
  s.byzantine = 1;
  s.rounds = 3;
  s.local_iterations = 1;
  s.upload = "full";
  s.client_filter = "trmean:0.34";
  s.attack = "noise";
  s.byzantine_placement = "first";
  s.run_seed = 0x5eed0003;
  s.data_seed = 0x5eed0004;

  ScheduleEvent leave;  // the one event the violation actually needs
  leave.action = EventAction::kLeave;
  leave.from = 1;
  leave.round = 1;
  s.events.push_back(leave);

  // Decoys the shrinker must strip. The crash/recover pair is chosen so
  // that deleting just the crash leaves an orphaned recover — an invalid
  // candidate the shrink loop must skip, not execute.
  ScheduleEvent crash;
  crash.action = EventAction::kCrash;
  crash.from_server = true;
  crash.from = 2;  // an honest PS (placement "first" makes PS 0 Byzantine)
  crash.round = 1;
  s.events.push_back(crash);
  ScheduleEvent recover;
  recover.action = EventAction::kRecover;
  recover.from_server = true;
  recover.from = 2;
  recover.round = 2;
  s.events.push_back(recover);
  ScheduleEvent drop;
  drop.action = EventAction::kDrop;
  drop.round = 0;
  drop.from_server = true;
  drop.from = 2;
  drop.to_server = false;
  drop.to = 0;
  drop.kind = "broadcast";
  drop.occurrence = 0;
  s.events.push_back(drop);
  return s;
}

FuzzSchedule mode_drift_scenario() {
  FuzzSchedule s;
  s.seed = 0;
  s.kind = ScheduleKind::kParity;
  s.clients = 5;
  s.servers = 5;
  s.byzantine = 1;
  s.rounds = 2;
  s.local_iterations = 1;
  // Sparse uploads give every honest PS a different client subset, so the
  // candidate columns hold DISTINCT values and the kept-window sums are
  // inexact — with "full" all honest broadcasts are identical and
  // 3v/3 = v is exact under every mode, hiding the plant.
  s.upload = "sparse";
  s.client_filter = "trmean:0.2";
  s.attack = "noise";
  s.byzantine_placement = "first";
  s.run_seed = 0x5eed0005;
  s.data_seed = 0x5eed0006;
  // The load-bearing knob: any directed mode exposes the plant. Under
  // "nearest" the same plant is a bitwise no-op and the case passes —
  // the self-test asserts both directions.
  s.rounding_mode = "downward";
  return s;
}

}  // namespace fedms::testing
