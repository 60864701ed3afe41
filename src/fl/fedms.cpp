#include "fl/fedms.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "core/contracts.h"
#include "core/log.h"
#include "obs/obs.h"

namespace fedms::fl {

const RoundRecord& RunResult::final_eval() const {
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it)
    if (it->eval_accuracy.has_value()) return *it;
  FEDMS_EXPECTS(!"run never evaluated");
  return rounds.back();
}

FedMsRun::FedMsRun(FedMsConfig config, std::vector<LearnerPtr> learners)
    : config_(std::move(config)),
      learners_(std::move(learners)),
      pool_(config_.worker_threads) {
  config_.validate();
  FEDMS_EXPECTS(learners_.size() == config_.clients);
  for (const auto& learner : learners_) FEDMS_EXPECTS(learner != nullptr);

  const core::SeedSequence seeds(config_.seed);

  // Decide which PS indices are Byzantine.
  std::vector<bool> is_byzantine(config_.servers, false);
  if (config_.byzantine_placement == "first") {
    for (std::size_t i = 0; i < config_.byzantine; ++i) is_byzantine[i] = true;
  } else {
    core::Rng placement_rng = seeds.make_rng("byz-placement");
    for (const std::size_t i : placement_rng.sample_without_replacement(
             config_.servers, config_.byzantine))
      is_byzantine[i] = true;
  }

  servers_.reserve(config_.servers);
  for (std::size_t i = 0; i < config_.servers; ++i) {
    byz::AttackPtr attack;
    if (is_byzantine[i]) attack = byz::make_attack(config_.attack);
    servers_.emplace_back(i, std::move(attack), seeds.make_rng("attack", i));
  }

  filter_ = make_aggregator(config_.client_filter);
  upload_ = make_upload_strategy(config_.upload);
  network_ = net::SimNetwork(seeds.make_rng("network"));
  network_.set_loss_rate(config_.network_loss_rate);

  // PS-side robust aggregation (extension; the paper's setting is mean).
  if (config_.server_aggregator != "mean") {
    std::shared_ptr<const Aggregator> rule(
        make_aggregator(config_.server_aggregator));
    for (auto& server : servers_) server.set_aggregator(rule);
  }

  client_rngs_.reserve(config_.clients);
  for (std::size_t k = 0; k < config_.clients; ++k)
    client_rngs_.push_back(seeds.make_rng("ps-choice", k));

  // Byzantine clients (extension).
  client_is_byzantine_.assign(config_.clients, false);
  if (config_.byzantine_clients > 0) {
    client_attack_ = byz::make_client_attack(config_.client_attack);
    if (config_.byzantine_client_placement == "first") {
      for (std::size_t k = 0; k < config_.byzantine_clients; ++k)
        client_is_byzantine_[k] = true;
    } else {
      core::Rng placement_rng = seeds.make_rng("byz-client-placement");
      for (const std::size_t k : placement_rng.sample_without_replacement(
               config_.clients, config_.byzantine_clients))
        client_is_byzantine_[k] = true;
    }
    client_attack_rngs_.reserve(config_.clients);
    for (std::size_t k = 0; k < config_.clients; ++k)
      client_attack_rngs_.push_back(seeds.make_rng("client-attack", k));
  }
  participation_rng_ = seeds.make_rng("participation");
  FEDMS_EXPECTS(
      parse_wire_encoding(config_.wire_encoding, &wire_spec_).empty());
  if (!wire_spec_.is_f32()) {
    wire_uplinks_.reserve(config_.clients);
    for (std::size_t k = 0; k < config_.clients; ++k)
      wire_uplinks_.emplace_back(wire_spec_);
    wire_downlinks_.reserve(config_.servers);
    for (std::size_t p = 0; p < config_.servers; ++p)
      wire_downlinks_.emplace_back(wire_spec_);
  }
  if (config_.dp_clip_norm > 0.0) {
    dp_rngs_.reserve(config_.clients);
    for (std::size_t k = 0; k < config_.clients; ++k)
      dp_rngs_.push_back(seeds.make_rng("dp-noise", k));
  }

  // Every PS starts holding w₀ (the common initial model).
  const std::vector<float> w0 = learners_.front()->parameters();
  FEDMS_EXPECTS(w0.size() == learners_.front()->dimension());
  for (auto& server : servers_) server.set_initial_model(w0);
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

  // Partial participation (extension): sample this round's active set —
  // uniformly, or biased toward high-loss clients (power-of-choice).
  std::vector<bool> participates(learners_.size(), true);
  if (config_.participation < 1.0) {
    const std::size_t active = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.participation *
                                    double(learners_.size()) +
                                    0.5));
    participates.assign(learners_.size(), false);
    if (config_.participation_strategy == "highloss" &&
        !last_losses_.empty()) {
      std::vector<std::size_t> order(learners_.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::partial_sort(order.begin(),
                        order.begin() + std::ptrdiff_t(active), order.end(),
                        [&](std::size_t a, std::size_t b) {
                          return last_losses_[a] > last_losses_[b];
                        });
      for (std::size_t i = 0; i < active; ++i) participates[order[i]] = true;
    } else {
      for (const std::size_t k :
           participation_rng_.sample_without_replacement(learners_.size(),
                                                         active))
        participates[k] = true;
    }
  }

  // ---- Stage 1: local training ----
  // Byzantine clients forge — and DP clips — relative to the model the
  // client started the round from, so capture it before training.
  const bool dp_enabled = config_.dp_clip_norm > 0.0;
  std::vector<std::vector<float>> round_start(learners_.size());
  for (std::size_t k = 0; k < learners_.size(); ++k)
    if (participates[k] &&
        (dp_enabled || (client_attack_ && client_is_byzantine_[k])))
      round_start[k] = learners_[k]->parameters();

  // Clients train independently (each owns its model, sampler, and RNG
  // streams), so the fan-out is deterministic regardless of worker count.
  std::vector<double> losses(learners_.size(), 0.0);
  {
    obs::Span span("sim", "local_training", round);
    pool_.parallel_for(learners_.size(), [&](std::size_t k) {
      if (!participates[k]) return;
      losses[k] = learners_[k]->local_training(config_.local_iterations);
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

  // Record per-client losses for power-of-choice selection; skipped
  // clients keep their (stale) previous estimate.
  if (last_losses_.empty())
    last_losses_.assign(learners_.size(),
                        std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < learners_.size(); ++k)
    if (participates[k]) last_losses_[k] = losses[k];

  // ---- Stage 2: model aggregation (upload + PS-side aggregation) ----
  {
  obs::Span span("sim", "upload", round);
  std::vector<net::Message> uploads;
  for (std::size_t k = 0; k < learners_.size(); ++k) {
    if (!participates[k]) continue;
    const auto targets = upload_->select_servers(
        k, round, config_.servers, client_rngs_[k]);
    FEDMS_ASSERT(!targets.empty());
    std::vector<float> payload = learners_[k]->parameters();
    if (client_attack_ && client_is_byzantine_[k]) {
      byz::ClientAttackContext context;
      context.round = round;
      context.client_index = k;
      context.honest_update = &payload;
      context.round_start = &round_start[k];
      payload = client_attack_->forge(context, client_attack_rngs_[k]);
    }
    if (dp_enabled && !(client_attack_ && client_is_byzantine_[k])) {
      // Gaussian mechanism on the round update: clip Δ to C in L2, then
      // add per-coordinate noise with stddev z·C.
      const std::vector<float>& start = round_start[k];
      FEDMS_ASSERT(start.size() == payload.size());
      double norm_sq = 0.0;
      for (std::size_t j = 0; j < payload.size(); ++j) {
        const double d = double(payload[j]) - start[j];
        norm_sq += d * d;
      }
      const double norm = std::sqrt(norm_sq);
      const double clip = config_.dp_clip_norm;
      const float scale =
          norm > clip ? static_cast<float>(clip / norm) : 1.0f;
      const double noise_std = config_.dp_noise_multiplier * clip;
      core::Rng& dp_rng = dp_rngs_[k];
      for (std::size_t j = 0; j < payload.size(); ++j) {
        float value = start[j] + scale * (payload[j] - start[j]);
        if (noise_std > 0.0)
          value += static_cast<float>(dp_rng.normal(0.0, noise_std));
        payload[j] = value;
      }
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
      net::Message m;
      m.from = net::client_id(k);
      m.to = net::server_id(targets[i]);
      m.kind = net::MessageKind::kModelUpload;
      m.round = round;
      if (!wire_spec_.is_f32()) {
        // Per-link wire stream, same keying as the transport engine: the
        // PS aggregates the sender-side round-trip and the network bills
        // the encoded size.
        WireEncodeResult wire =
            wire_uplinks_[k].channel(m.to).encode(payload);
        m.payload = std::move(wire.decoded);
        m.encoded_bytes = wire.bytes.size();
        m.wire_format = wire_spec_.format_tag();
      } else {
        // Copy for all but the last target; move the final one.
        m.payload = (i + 1 == targets.size()) ? std::move(payload) : payload;
      }
      uploads.push_back(std::move(m));
    }
  }
  record.upload_seconds = latency_.stage_seconds(uploads);
  for (auto& m : uploads) network_.send(std::move(m));
  }

  {
    obs::Span span("sim", "aggregation", round);
    for (auto& server : servers_) {
      std::vector<std::vector<float>> received;
      for (auto& m : network_.drain_inbox(net::server_id(server.index())))
        received.push_back(std::move(m.payload));
      server.aggregate_round(round, received);
    }
  }

  // ---- Stage 3: model dissemination + client-side Def() filter ----
  {
  obs::Span span("sim", "dissemination", round);
  std::vector<net::Message> broadcasts;
  broadcasts.reserve(servers_.size() * learners_.size());
  for (auto& server : servers_) {
    for (std::size_t k = 0; k < learners_.size(); ++k) {
      net::Message m;
      m.from = net::server_id(server.index());
      m.to = net::client_id(k);
      m.kind = net::MessageKind::kModelBroadcast;
      m.round = round;
      m.payload = server.disseminate(round, k);
      // An empty payload is a crashed/silent PS: nothing goes on the wire.
      if (m.payload.empty()) continue;
      if (!wire_spec_.is_f32()) {
        // Encoded after the Byzantine tampering, per (PS, client) stream —
        // exactly what the transport engine puts on the wire.
        WireEncodeResult wire =
            wire_downlinks_[server.index()].channel(m.to).encode(m.payload);
        m.payload = std::move(wire.decoded);
        m.encoded_bytes = wire.bytes.size();
        m.wire_format = wire_spec_.format_tag();
      }
      broadcasts.push_back(std::move(m));
    }
  }
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
      // Network loss can thin the set; apply_client_filter re-derives the
      // trim count from B over whatever survived (other rules degrade to the
      // mean below their preconditions). A total blackout leaves the client
      // continuing from its local model.
      if (!received.empty())
        learners_[k]->set_parameters(apply_client_filter(
            *filter_, received, config_.servers, config_.byzantine));
    }
  }

  if (callback_) callback_(round, learners_);

  // ---- Telemetry ----
  if ((round + 1) % config_.eval_every == 0 || round + 1 == config_.rounds) {
    const std::size_t eval_count =
        config_.eval_clients == 0
            ? learners_.size()
            : std::min(config_.eval_clients, learners_.size());
    double acc_sum = 0.0, eval_loss_sum = 0.0;
    for (std::size_t k = 0; k < eval_count; ++k) {
      const LearnerEval eval = learners_[k]->evaluate();
      acc_sum += eval.accuracy;
      eval_loss_sum += eval.loss;
    }
    record.eval_accuracy = acc_sum / double(eval_count);
    record.eval_loss = eval_loss_sum / double(eval_count);
  }

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

RunResult run_fedms(FedMsConfig config, std::vector<LearnerPtr> learners) {
  FedMsRun run(std::move(config), std::move(learners));
  return run.run();
}

}  // namespace fedms::fl
