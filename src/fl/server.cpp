#include "fl/server.h"

#include <utility>

#include "core/contracts.h"
#include "fl/aggregators.h"
#include "fl/client_step.h"

namespace fedms::fl {

ParameterServer::ParameterServer(std::size_t index, byz::AttackPtr attack,
                                 core::Rng rng, std::size_t history_limit)
    : index_(index),
      attack_(std::move(attack)),
      rng_(rng),
      history_limit_(history_limit) {
  FEDMS_EXPECTS(history_limit > 0);
}

void ParameterServer::set_initial_model(std::vector<float> w0) {
  FEDMS_EXPECTS(!w0.empty());
  initial_model_ = w0;
  aggregate_ = std::move(w0);
  encoded_aggregate_.clear();
}

void ParameterServer::set_aggregator(
    std::shared_ptr<const Aggregator> aggregator) {
  aggregator_ = std::move(aggregator);
}

void ParameterServer::aggregate_round(
    std::uint64_t /*round*/, const std::vector<std::vector<float>>& received) {
  last_upload_count_ = received.size();
  encoded_aggregate_.clear();
  // Archive the previous round's aggregate before overwriting it.
  if (!aggregate_.empty()) {
    history_.push_back(aggregate_);
    if (history_.size() > history_limit_)
      history_.erase(history_.begin());
  }
  if (!received.empty()) {
    aggregate_ = aggregator_ ? aggregate_or_mean(*aggregator_, received)
                             : mean_aggregate(received);
  }
  // Otherwise keep the previous aggregate (sparse upload left N_i empty).
  FEDMS_ENSURES(!aggregate_.empty());
}

ParameterServer::Snapshot ParameterServer::snapshot() const {
  Snapshot snap;
  snap.aggregate = aggregate_;
  snap.history = history_;
  snap.last_upload_count = last_upload_count_;
  snap.rng = rng_;
  return snap;
}

void ParameterServer::restore(const Snapshot& snapshot) {
  aggregate_ = snapshot.aggregate;
  encoded_aggregate_.clear();
  history_ = snapshot.history;
  last_upload_count_ = snapshot.last_upload_count;
  rng_ = snapshot.rng;
}

void ParameterServer::reset_state() {
  aggregate_ = initial_model_;
  encoded_aggregate_.clear();
  history_.clear();
  last_upload_count_ = 0;
  accepted_.clear();
}

void ParameterServer::set_attack(byz::AttackPtr attack) {
  attack_ = std::move(attack);
}

std::vector<float> ParameterServer::disseminate(std::uint64_t round,
                                                std::size_t client) {
  FEDMS_EXPECTS(!aggregate_.empty());
  if (!attack_) return aggregate_;
  byz::AttackContext context;
  context.round = round;
  context.server_index = index_;
  context.recipient_client = client;
  context.honest_aggregate = &aggregate_;
  context.history = &history_;
  context.initial_model = &initial_model_;
  return attack_->tamper(context, rng_);
}

bool ParameterServer::accept(net::Message upload) {
  FEDMS_EXPECTS(upload.kind == net::MessageKind::kModelUpload);
  finish_wire_payload(upload, uplinks_);
  return accepted_.emplace(upload.from.index, std::move(upload.payload))
      .second;
}

void ParameterServer::aggregate(std::uint64_t round) {
  aggregate_round(round, ascending_models(accepted_));
  accepted_.clear();
}

std::optional<net::Message> ParameterServer::broadcast(std::uint64_t round,
                                                       std::size_t client,
                                                       bool keep_encoded) {
  net::Message m{.from = net::server_id(index_),
                 .to = net::client_id(client),
                 .kind = net::MessageKind::kModelBroadcast,
                 .round = round};
  if (!attack_) {
    // Every recipient gets the same aggregate, and a stateless encoding
    // of it is the same bytes on every stream: encode it once.
    WireChannel& channel = downlinks_.channel(m.to);
    if (!channel.spec().is_f32() && !channel.spec().stateful()) {
      FEDMS_EXPECTS(!aggregate_.empty());
      const std::uint8_t tag = channel.spec().format_tag();
      auto it = encoded_aggregate_.find(tag);
      if (it == encoded_aggregate_.end())
        it = encoded_aggregate_.emplace(tag, channel.encode(aggregate_)).first;
      m.payload = it->second.decoded;
      m.encoded_bytes = it->second.bytes.size();
      m.wire_format = tag;
      if (keep_encoded) m.encoded = it->second.bytes;
      return m;
    }
  }
  m.payload = disseminate(round, client);
  // A silent PS sends nothing, and its stream does not advance (keyframes
  // are per-frame flags, so a gap desynchronizes nothing). Encoding comes
  // after the tampering: the wire carries what the attack produced.
  if (m.payload.empty()) return std::nullopt;
  WireChannel& channel = downlinks_.channel(m.to);
  if (!channel.spec().is_f32())
    encode_payload(m, channel, m.payload, keep_encoded);
  return m;
}

void ParameterServer::set_wire_encoding(const WireEncodingSpec& spec) {
  downlinks_ = WireChannelBook(spec);
}

void ParameterServer::set_client_encoding(std::size_t client,
                                          const WireEncodingSpec& spec) {
  (void)downlinks_.channel(net::client_id(client), spec);
}

std::vector<bool> byzantine_servers(const FedMsConfig& fed) {
  std::vector<bool> mask(fed.servers, false);
  if (fed.byzantine_placement == "first") {
    for (std::size_t i = 0; i < fed.byzantine; ++i) mask[i] = true;
  } else {
    core::Rng placement_rng =
        core::SeedSequence(fed.seed).make_rng("byz-placement");
    for (const std::size_t i : placement_rng.sample_without_replacement(
             fed.servers, fed.byzantine))
      mask[i] = true;
  }
  return mask;
}

ParameterServer make_parameter_server(const FedMsConfig& fed,
                                      std::size_t index,
                                      std::vector<float> w0) {
  FEDMS_EXPECTS(index < fed.servers);
  byz::AttackPtr attack;
  if (byzantine_servers(fed)[index]) attack = byz::make_attack(fed.attack);
  ParameterServer server(index, std::move(attack),
                         core::SeedSequence(fed.seed).make_rng("attack", index));
  if (fed.server_aggregator != "mean")
    server.set_aggregator(std::shared_ptr<const Aggregator>(
        make_aggregator(fed.server_aggregator)));
  server.set_wire_encoding(wire_encoding_spec(fed.wire_encoding));
  server.set_initial_model(std::move(w0));
  return server;
}

}  // namespace fedms::fl
