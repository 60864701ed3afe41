// Event-driven Fed-MS: the round protocol of `fl::FedMsRun` executed as
// scheduled message deliveries on a virtual clock instead of a lock-step
// loop.
//
// One round, as events on the EventQueue (t0 = round start):
//
//   t0 + compute·straggler(k)      participant k finishes E local steps
//                                  and uploads to its chosen PS(s); each
//                                  message is individually delayed by the
//                                  sender's link (LatencyModel) and the
//                                  FaultInjector (drop/dup/delay).
//   t0 + upload_window             every live PS aggregates whatever
//                                  arrived in time (late uploads are
//                                  counted and ignored) and disseminates
//                                  to all K clients — Byzantine PSs tamper
//                                  per recipient; crashed PSs are silent.
//   t0 + upload_window + timeout   client k runs the Def() filter over the
//                                  P' <= P candidates it actually holds,
//                                  with the adaptive trim count ⌊β·P'⌋.
//                                  Short of quorum (P' <= 2B) it first
//                                  retries missing PSs with bounded
//                                  exponential backoff, then falls back to
//                                  its last feasible model.
//
// Partial participation draws the round's participants exactly as the
// synchronous loop does (fl::draw_participants on the "participation"
// stream); a non-participant neither trains nor uploads, but still
// receives, filters and installs from t0 + upload_window + timeout on.
//
// The round ends when the queue drains; the next round starts at that
// virtual time. Every handler runs in deterministic (time, seq) order, so
// a given (seed, fault plan) replays bit-identically — the event-trace
// hash in the result is the regression handle for that property.
//
// Each client's side of the round — training, Byzantine forgery, DP,
// upload encoding, Def() — is the shared fl::ClientStep, and each PS's
// side is fl::ParameterServer's accept/aggregate/broadcast; this engine
// only schedules them. Wire encodings: the stateless fp16/int8 specs apply
// to every upload and per-recipient broadcast, as in the synchronous loop.
//
// Unsupported (rejected at construction; the sync loop and the transport
// engine run them): stateful wire encodings (delta, top-k). Drops,
// duplicates and retries break a delta/top-k stream, and showing that
// would need decoding at the receiver, which this engine does not model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fl/client_step.h"
#include "fl/config.h"
#include "fl/fedms.h"
#include "net/latency.h"
#include "net/message.h"
#include "runtime/event_queue.h"
#include "runtime/fault.h"
#include "runtime/policy.h"

namespace fedms::fl {
struct WorkloadConfig;  // fl/experiment.h
}

namespace fedms::runtime {

struct AsyncRoundRecord {
  // The synchronous-loop telemetry (round, losses, traffic, stage times —
  // upload_seconds/broadcast_seconds hold the virtual duration of the two
  // communication legs), so sync tooling can consume async runs unchanged.
  fl::RoundRecord base;
  double start_seconds = 0.0;  // virtual time the round began
  double end_seconds = 0.0;    // virtual time the queue drained
  // Fault/telemetry counters for this round.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_late = 0;        // delivered after the deadline
  std::uint64_t messages_duplicated = 0;  // extra copies delivered
  std::uint64_t omissions = 0;            // PS send-side omissions
  std::uint64_t retry_requests = 0;       // client re-requests sent
  std::uint64_t fallbacks = 0;            // clients that used last-feasible
  std::size_t crashed_servers = 0;        // cumulative crashed PSs
  // Candidate-set sizes P' across clients at filter time.
  std::size_t min_candidates = 0;
  std::size_t max_candidates = 0;
  double mean_candidates = 0.0;
};

struct AsyncRunResult {
  std::vector<AsyncRoundRecord> rounds;
  net::TrafficStats uplink_total;
  net::TrafficStats downlink_total;
  double virtual_seconds = 0.0;  // final clock value
  // FNV-1a over the formatted event trace; equal traces <=> equal hashes
  // for determinism tests.
  std::uint64_t trace_hash = 0;
  // The formatted trace itself, when RuntimeOptions::record_trace.
  std::vector<std::string> trace;

  // Projection onto the synchronous result type (metrics::series_from_run,
  // write_run_json, ... all apply).
  fl::RunResult as_run_result() const;
  const AsyncRoundRecord& final_eval() const;
};

// ---- schedule hooks (testing / fuzzing instrumentation) ----
//
// The deterministic fuzz harness (src/testing) needs three seams into the
// event-driven round: scripted per-message fates (explicit, shrinkable
// schedule events instead of the FaultInjector's rate-driven draws), a
// window into every client filter decision (the invariant oracles attach
// there, and oracle self-tests rewrite the output to plant a known bug),
// and the sync loop's per-round callback for differential model
// comparison. All three are optional and cost one branch when unset.

struct MessageEvent {
  std::uint64_t round = 0;
  net::NodeId from;
  net::NodeId to;
  net::MessageKind kind = net::MessageKind::kModelUpload;
};

// Consulted in send() before the FaultInjector: returning a LinkFate
// overrides both the injector's omission and link draws for this message
// (which then consume no randomness); nullopt defers to the injector.
using MessageHook =
    std::function<std::optional<FaultInjector::LinkFate>(const MessageEvent&)>;

struct FilterEvent {
  std::uint64_t round = 0;
  std::size_t client = 0;
  // Candidate origin PS indices, ascending, parallel to `candidates`.
  const std::vector<std::size_t>& servers;
  const std::vector<fl::ModelVector>& candidates;
  // Per-side trim actually applied (fl::kNoTrim for non-trimming rules;
  // the adaptive filter reports its per-call estimate B̂ here).
  std::size_t trim = 0;
  // The model about to be installed; hooks may rewrite it in place.
  fl::ModelVector& filtered;
};
using FilterHook = std::function<void(const FilterEvent&)>;

class AsyncFedMsRun {
 public:
  AsyncFedMsRun(fl::FedMsConfig config, RuntimeOptions options,
                std::vector<fl::LearnerPtr> learners);

  // Mutable before run(): heterogeneous per-node links.
  net::LatencyModel& latency_model() { return latency_; }

  void set_message_hook(MessageHook hook) { message_hook_ = std::move(hook); }
  void set_filter_hook(FilterHook hook) { filter_hook_ = std::move(hook); }
  // Invoked after each round's queue drains (all clients filtered), before
  // evaluation — the same observation point as FedMsRun's round callback.
  using RoundCallback =
      std::function<void(std::uint64_t, const std::vector<fl::LearnerPtr>&)>;
  void set_round_callback(RoundCallback callback) {
    round_callback_ = std::move(callback);
  }
  // Invoked at the start of each round, after membership and PS
  // crash/recovery transitions are applied but before any event is
  // scheduled — the seam where scenario drivers switch attacks or
  // repartition data.
  using RoundStartHook = std::function<void(std::uint64_t)>;
  void set_round_start_hook(RoundStartHook hook) {
    round_start_hook_ = std::move(hook);
  }

  AsyncRunResult run();

  const std::vector<fl::LearnerPtr>& learners() const { return learners_; }
  const std::vector<fl::ParameterServer>& servers() const {
    return servers_;
  }
  // Scenario drivers mutate PS dissemination behavior mid-run (attack-mix
  // switches) through here, from a round-start hook only.
  std::vector<fl::ParameterServer>& mutable_servers() { return servers_; }
  const RuntimeOptions& options() const { return options_; }
  // The client-side Def() built from config.client_filter. Mutable before
  // run() so scenario drivers can install the fedgreed root scorer
  // (fl::install_fedgreed_scorer).
  fl::Aggregator& client_filter() { return *filter_; }

 private:
  struct ClientState {
    // Candidates received this round, keyed by PS index (duplicates
    // deduplicate here; map order fixes the filter's input order).
    std::map<std::size_t, fl::ModelVector> candidates;
    std::size_t retries_used = 0;
    bool done = false;
    std::vector<float> last_feasible;  // w0 until a filter succeeds
  };

  void execute_round(std::uint64_t round, AsyncRunResult& result);
  // Routes one message through the fault injector + latency model and
  // schedules its delivery event(s). `deliver` runs per arriving copy.
  void send(net::Message message, std::uint64_t round,
            std::function<void(net::Message)> deliver);
  void client_filter_deadline(std::size_t k, std::uint64_t round);
  void finish_client(std::size_t k, std::uint64_t round);
  void trace(std::uint64_t round, const std::string& event,
             const net::NodeId& from, const net::NodeId& to);
  void trace_node(std::uint64_t round, const std::string& event,
                  const net::NodeId& node);

  fl::FedMsConfig config_;
  RuntimeOptions options_;
  std::vector<fl::LearnerPtr> learners_;
  core::SeedSequence seeds_;  // root for round-keyed stream derivation
  std::vector<fl::ParameterServer> servers_;
  fl::AggregatorPtr filter_;
  std::vector<fl::ClientStep> steps_;  // one per learner
  std::size_t quorum_ = 1;
  core::Rng participation_rng_;
  net::LatencyModel latency_;
  EventQueue queue_;
  FaultInjector faults_;
  MessageHook message_hook_;
  FilterHook filter_hook_;
  RoundCallback round_callback_;
  RoundStartHook round_start_hook_;

  // Crash/recovery handoff: the state a PS held when it went down, put
  // back verbatim when a ServerRecovery brings it up again.
  std::vector<char> ps_crashed_;  // per PS, in the current round
  std::vector<fl::ParameterServer::Snapshot> ps_snapshots_;

  // Per-round working state.
  std::vector<ClientState> clients_;
  std::vector<char> ps_aggregated_;
  std::vector<char> client_active_;  // membership at the current round
  std::size_t active_count_ = 0;
  std::vector<bool> participates_;  // the round's fl::draw_participants
  std::vector<double> round_losses_;
  std::size_t clients_done_ = 0;
  AsyncRoundRecord* record_ = nullptr;  // current round's record
  AsyncRunResult* result_ = nullptr;    // current run (trace + totals)
  net::TrafficStats uplink_;
  net::TrafficStats downlink_;
};

// Convenience used by tools/fedms_sim and the fault-sweep bench: builds
// the Table-II NN workload (fl::make_workload + make_nn_learners) and runs
// it on the event-driven runtime.
AsyncRunResult run_async_experiment(const fl::WorkloadConfig& workload,
                                    const fl::FedMsConfig& fed,
                                    const RuntimeOptions& options);

}  // namespace fedms::runtime
