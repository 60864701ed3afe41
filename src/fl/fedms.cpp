#include "fl/fedms.h"

#include <algorithm>

#include "core/contracts.h"
#include "obs/obs.h"

namespace fedms::fl {

const RoundRecord& RunResult::final_eval() const {
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it)
    if (it->eval_accuracy.has_value()) return *it;
  FEDMS_EXPECTS(!"run never evaluated");
  return rounds.back();
}

std::size_t participant_count(const FedMsConfig& fed) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(fed.participation * double(fed.clients) +
                                  0.5));
}

std::vector<bool> draw_participants(const FedMsConfig& fed, core::Rng& rng) {
  if (fed.participation >= 1.0) return std::vector<bool>(fed.clients, true);
  std::vector<bool> participates(fed.clients, false);
  for (const std::size_t k :
       rng.sample_without_replacement(fed.clients, participant_count(fed)))
    participates[k] = true;
  return participates;
}

bool eval_due(const FedMsConfig& fed, std::uint64_t round) {
  return (round + 1) % fed.eval_every == 0 || round + 1 == fed.rounds;
}

void evaluate_round(const FedMsConfig& fed, std::uint64_t round,
                    const std::vector<LearnerPtr>& learners,
                    RoundRecord& record) {
  if (!eval_due(fed, round)) return;
  const std::size_t eval_count =
      fed.eval_clients == 0 ? learners.size()
                            : std::min(fed.eval_clients, learners.size());
  double acc_sum = 0.0, eval_loss_sum = 0.0;
  for (std::size_t k = 0; k < eval_count; ++k) {
    const LearnerEval eval = learners[k]->evaluate();
    acc_sum += eval.accuracy;
    eval_loss_sum += eval.loss;
  }
  record.eval_accuracy = acc_sum / double(eval_count);
  record.eval_loss = eval_loss_sum / double(eval_count);
}

FedMsRun::FedMsRun(FedMsConfig config, std::vector<LearnerPtr> learners)
    : config_(std::move(config)),
      learners_(std::move(learners)),
      pool_(config_.worker_threads) {
  config_.validate();
  FEDMS_EXPECTS(learners_.size() == config_.clients);
  for (const auto& learner : learners_) FEDMS_EXPECTS(learner != nullptr);

  const core::SeedSequence seeds(config_.seed);
  // Every PS starts holding w₀ (the common initial model).
  const std::vector<float> w0 = learners_.front()->parameters();
  FEDMS_EXPECTS(w0.size() == learners_.front()->dimension());
  servers_.reserve(config_.servers);
  for (std::size_t i = 0; i < config_.servers; ++i)
    servers_.push_back(make_parameter_server(config_, i, w0));

  filter_ = make_aggregator(config_.client_filter);
  steps_.reserve(config_.clients);
  for (std::size_t k = 0; k < config_.clients; ++k)
    steps_.emplace_back(config_, k, *learners_[k], *filter_);
  participation_rng_ = seeds.make_rng("participation");
}

void FedMsRun::set_round_callback(RoundCallback callback) {
  callback_ = std::move(callback);
}

void FedMsRun::install_global_model(
    const std::vector<float>& global_model) {
  FEDMS_EXPECTS(global_model.size() == learners_.front()->dimension());
  for (auto& learner : learners_) learner->set_parameters(global_model);
  for (auto& server : servers_) server.set_initial_model(global_model);
}

RunResult FedMsRun::run() {
  RunResult result;
  result.rounds.reserve(config_.rounds);
  for (std::uint64_t t = 0; t < config_.rounds; ++t)
    execute_round(t, result);
  result.uplink_total = network_.uplink();
  result.downlink_total = network_.downlink();
  return result;
}

void FedMsRun::execute_round(std::uint64_t round, RunResult& result) {
  RoundRecord record;
  record.round = round;
  const net::TrafficStats up_before = network_.uplink();
  const net::TrafficStats down_before = network_.downlink();

  // Partial participation (extension): this round's active set.
  const std::vector<bool> participates =
      draw_participants(config_, participation_rng_);

  // ---- Stage 1: local training ----
  // Clients train independently (each step owns its model, sampler, and
  // RNG streams), so the fan-out is deterministic regardless of worker
  // count.
  std::vector<double> losses(learners_.size(), 0.0);
  {
    obs::Span span("sim", "local_training", round);
    pool_.parallel_for(learners_.size(), [&](std::size_t k) {
      if (participates[k]) losses[k] = steps_[k].train();
    });
  }
  double loss_sum = 0.0;
  std::size_t trained = 0;
  for (std::size_t k = 0; k < learners_.size(); ++k) {
    if (!participates[k]) continue;
    loss_sum += losses[k];
    ++trained;
  }
  record.train_loss = loss_sum / double(trained);

  // ---- Stage 2: model aggregation (upload + PS-side aggregation) ----
  {
    obs::Span span("sim", "upload", round);
    std::vector<net::Message> uploads;
    for (std::size_t k = 0; k < learners_.size(); ++k) {
      if (!participates[k]) continue;
      for (net::Message& m : steps_[k].uploads(round))
        uploads.push_back(std::move(m));
    }
    record.upload_seconds = latency_.stage_seconds(uploads);
    for (auto& m : uploads) network_.send(std::move(m));
  }

  {
    obs::Span span("sim", "aggregation", round);
    for (auto& server : servers_) {
      for (auto& m : network_.drain_inbox(net::server_id(server.index())))
        server.accept(std::move(m));
      server.aggregate(round);
    }
  }

  // ---- Stage 3: model dissemination + client-side Def() filter ----
  {
    obs::Span span("sim", "dissemination", round);
    std::vector<net::Message> broadcasts;
    broadcasts.reserve(servers_.size() * learners_.size());
    for (auto& server : servers_)
      for (std::size_t k = 0; k < learners_.size(); ++k)
        if (auto m = server.broadcast(round, k))
          broadcasts.push_back(std::move(*m));
    record.broadcast_seconds = latency_.stage_seconds(broadcasts);
    for (auto& m : broadcasts) network_.send(std::move(m));
  }

  {
    obs::Span span("sim", "filter", round);
    for (std::size_t k = 0; k < learners_.size(); ++k) {
      std::vector<ModelVector> received;
      received.reserve(servers_.size());
      for (auto& m : network_.drain_inbox(net::client_id(k)))
        received.push_back(std::move(m.payload));
      // A silent (crash-attack) PS thins the set; the filter re-derives
      // the trim count from B over whatever arrived (other rules degrade
      // to the mean below their preconditions). With every PS silent the
      // client continues from its local model.
      if (!received.empty()) steps_[k].install(steps_[k].filter(received));
    }
  }

  if (callback_) callback_(round, learners_);

  evaluate_round(config_, round, learners_, record);

  const net::TrafficStats up_after = network_.uplink();
  const net::TrafficStats down_after = network_.downlink();
  record.uplink_bytes = up_after.bytes - up_before.bytes;
  record.downlink_bytes = down_after.bytes - down_before.bytes;
  record.uplink_messages = up_after.messages - up_before.messages;
  record.downlink_messages = down_after.messages - down_before.messages;
  result.simulated_comm_seconds +=
      record.upload_seconds + record.broadcast_seconds;
  result.rounds.push_back(record);
}

}  // namespace fedms::fl
