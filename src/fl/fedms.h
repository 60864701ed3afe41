// The Fed-MS orchestrator — Algorithm 1 of the paper, run over the
// simulated edge network.
//
// Each round executes the three synchronized stages:
//   1. Local training: every client runs E mini-batch SGD steps.
//   2. Model aggregation: every client uploads its local model to the PSs
//      chosen by the upload strategy (Fed-MS: one uniformly random PS);
//      every PS means the local models it received.
//   3. Model dissemination: every PS sends its aggregate to every client —
//      Byzantine PSs tamper per recipient — and every client runs the
//      Def() filter (Fed-MS: trmean_β) over the P received models to get
//      its next-round starting point.
//
// Vanilla FedAvg without defense is the same loop with filter "mean"; the
// single-PS classic is servers=1, byzantine=0.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "fl/aggregators.h"
#include "fl/client_step.h"
#include "fl/config.h"
#include "fl/learner.h"
#include "fl/server.h"
#include "net/latency.h"
#include "net/sim_network.h"

namespace fedms::fl {

struct RoundRecord {
  std::uint64_t round = 0;
  double train_loss = 0.0;  // mean over clients of mean local-step loss
  // Test metrics averaged over the evaluated clients; unset on rounds where
  // eval_every skipped evaluation.
  std::optional<double> eval_loss;
  std::optional<double> eval_accuracy;
  // Traffic of this round.
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_messages = 0;
  std::uint64_t downlink_messages = 0;
  // Simulated stage times under the latency model.
  double upload_seconds = 0.0;
  double broadcast_seconds = 0.0;
};

struct RunResult {
  std::vector<RoundRecord> rounds;
  net::TrafficStats uplink_total;
  net::TrafficStats downlink_total;
  double simulated_comm_seconds = 0.0;

  // Last record that carries evaluation metrics (contract-violates if the
  // run never evaluated).
  const RoundRecord& final_eval() const;
};

// Clients that train each round under partial participation:
// round(participation·K), at least 1.
std::size_t participant_count(const FedMsConfig& fed);

// The round's participant mask (size K): participant_count(fed) clients
// drawn uniformly without replacement from `rng`, the run's sequential
// "participation" stream. At participation 1 every client participates
// and nothing is drawn. Every engine calls this once per round, in round
// order, so a node process replaying the stream gets the simulator's
// masks.
std::vector<bool> draw_participants(const FedMsConfig& fed, core::Rng& rng);

// True on the rounds fed.eval_every schedules, and on the last round.
bool eval_due(const FedMsConfig& fed, std::uint64_t round);

// On eval_due rounds, sets record.eval_accuracy and record.eval_loss to
// the mean over the first fed.eval_clients learners (all when 0), in
// ascending client order; leaves them unset otherwise.
void evaluate_round(const FedMsConfig& fed, std::uint64_t round,
                    const std::vector<LearnerPtr>& learners,
                    RoundRecord& record);

class FedMsRun {
 public:
  // `learners` are the K clients (learners.size() must equal
  // config.clients) — all already holding identical initial parameters w₀.
  FedMsRun(FedMsConfig config, std::vector<LearnerPtr> learners);

  // Optional observer invoked after each round's filter step, before
  // evaluation; `learners()` exposes current client states to it.
  using RoundCallback =
      std::function<void(std::uint64_t round,
                         const std::vector<LearnerPtr>& learners)>;
  void set_round_callback(RoundCallback callback);

  // Warm start: installs `global_model` as every client's parameters and
  // every PS's held model (e.g. restored from a checkpoint) before run().
  void install_global_model(const std::vector<float>& global_model);

  // Runs config.rounds rounds and returns the telemetry.
  RunResult run();

  const std::vector<LearnerPtr>& learners() const { return learners_; }
  const std::vector<ParameterServer>& servers() const { return servers_; }
  // Mutable before run(): configure heterogeneous per-node links etc.
  net::LatencyModel& latency_model() { return latency_; }
  // The client-side Def() built from config.client_filter. Mutable before
  // run() so the experiment layer can install the fedgreed root scorer
  // (fl::install_fedgreed_scorer).
  Aggregator& client_filter() { return *filter_; }

 private:
  void execute_round(std::uint64_t round, RunResult& result);

  FedMsConfig config_;
  std::vector<LearnerPtr> learners_;
  std::vector<ParameterServer> servers_;
  AggregatorPtr filter_;
  std::vector<ClientStep> steps_;  // one per learner
  net::SimNetwork network_;
  net::LatencyModel latency_;
  core::Rng participation_rng_;
  core::ThreadPool pool_;                        // local-training fan-out
  RoundCallback callback_;
};

}  // namespace fedms::fl
