#include "fl/client_step.h"

#include <cmath>
#include <utility>

#include "core/contracts.h"

namespace fedms::fl {

namespace {

// Which clients are Byzantine under `fed`: the first byzantine_clients,
// or one draw on the "byz-client-placement" stream for "random".
std::vector<bool> byzantine_clients(const FedMsConfig& fed) {
  std::vector<bool> mask(fed.clients, false);
  if (fed.byzantine_clients == 0) return mask;
  if (fed.byzantine_client_placement == "first") {
    for (std::size_t k = 0; k < fed.byzantine_clients; ++k) mask[k] = true;
  } else {
    core::Rng placement_rng =
        core::SeedSequence(fed.seed).make_rng("byz-client-placement");
    for (const std::size_t k : placement_rng.sample_without_replacement(
             fed.clients, fed.byzantine_clients))
      mask[k] = true;
  }
  return mask;
}

}  // namespace

ClientStep::ClientStep(const FedMsConfig& fed, std::size_t k,
                       LocalLearner& learner, const Aggregator& filter)
    : k_(k),
      learner_(&learner),
      filter_(&filter),
      servers_(fed.servers),
      byzantine_servers_(fed.byzantine),
      local_iterations_(fed.local_iterations),
      dp_clip_norm_(fed.dp_clip_norm),
      dp_noise_multiplier_(fed.dp_noise_multiplier),
      upload_(make_upload_strategy(fed.upload)),
      wire_spec_(wire_encoding_spec(fed.wire_encoding)),
      uplinks_(wire_spec_) {
  FEDMS_EXPECTS(k < fed.clients);
  if (byzantine_clients(fed)[k])
    attack_ = byz::make_client_attack(fed.client_attack);
  rekey(core::SeedSequence(fed.seed));
}

void ClientStep::rekey(const core::SeedSequence& round_seeds) {
  ps_choice_ = round_seeds.make_rng("ps-choice", k_);
  attack_rng_ = round_seeds.make_rng("client-attack", k_);
  dp_rng_ = round_seeds.make_rng("dp-noise", k_);
}

double ClientStep::train() {
  // A forgery and the DP clip are both relative to the model the client
  // started the round from.
  if (attack_ || dp_clip_norm_ > 0.0) round_start_ = learner_->parameters();
  return learner_->local_training(local_iterations_);
}

void ClientStep::privatize(std::vector<float>& payload) {
  const std::vector<float>& start = round_start_;
  FEDMS_ASSERT(start.size() == payload.size());
  double norm_sq = 0.0;
  for (std::size_t j = 0; j < payload.size(); ++j) {
    const double d = double(payload[j]) - start[j];
    norm_sq += d * d;
  }
  const double norm = std::sqrt(norm_sq);
  const double clip = dp_clip_norm_;
  const float scale = norm > clip ? static_cast<float>(clip / norm) : 1.0f;
  const double noise_std = dp_noise_multiplier_ * clip;
  for (std::size_t j = 0; j < payload.size(); ++j) {
    float value = start[j] + scale * (payload[j] - start[j]);
    if (noise_std > 0.0)
      value += static_cast<float>(dp_rng_.normal(0.0, noise_std));
    payload[j] = value;
  }
}

std::vector<net::Message> ClientStep::uploads(std::uint64_t round,
                                              bool keep_encoded) {
  const auto targets =
      upload_->select_servers(k_, round, servers_, ps_choice_);
  FEDMS_ASSERT(!targets.empty());
  std::vector<float> payload = learner_->parameters();
  if (attack_) {
    byz::ClientAttackContext context;
    context.round = round;
    context.client_index = k_;
    context.honest_update = &payload;
    context.round_start = &round_start_;
    payload = attack_->forge(context, attack_rng_);
  } else if (dp_clip_norm_ > 0.0) {
    privatize(payload);
  }
  std::vector<float>().swap(round_start_);

  std::vector<net::Message> messages;
  messages.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    net::Message& m = messages.emplace_back(
        net::Message{.from = net::client_id(k_),
                     .to = net::server_id(targets[i]),
                     .kind = net::MessageKind::kModelUpload,
                     .round = round});
    if (!wire_spec_.is_f32())
      encode_payload(m, uplinks_.channel(m.to), payload, keep_encoded);
    else
      m.payload = (i + 1 == targets.size()) ? std::move(payload) : payload;
  }
  return messages;
}

ModelVector ClientStep::filter(const std::vector<ModelVector>& candidates,
                               std::size_t* trim) const {
  return apply_client_filter(*filter_, candidates, servers_,
                             byzantine_servers_, trim);
}

std::vector<ModelVector> ascending_models(
    std::map<std::size_t, ModelVector>& by_index,
    std::vector<std::size_t>* origins) {
  std::vector<ModelVector> models;
  models.reserve(by_index.size());
  if (origins) origins->reserve(by_index.size());
  for (auto& [index, model] : by_index) {
    if (origins) origins->push_back(index);
    models.push_back(std::move(model));
  }
  return models;
}

}  // namespace fedms::fl
