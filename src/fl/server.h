// Edge-side parameter server.
//
// Every PS — benign or Byzantine — aggregates honestly (the mean of the
// local models it received); a Byzantine PS lies at the *dissemination*
// edge, where its Attack rewrites the payload per recipient. Modelling it
// this way keeps the honest aggregate available as the attack's input,
// which Safeguard and Backward need (they are functions of the PS's own
// aggregation history).
//
// If a PS receives no uploads in a round (possible under sparse uploading:
// P(N_i = ∅) = (1 − 1/P)^K per round), it re-disseminates its previous
// aggregate — the initial model w₀ before any round has completed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "byz/attack.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/config.h"
#include "fl/wire_encoding.h"
#include "net/message.h"

namespace fedms::fl {

class ParameterServer {
 public:
  // `attack == nullptr` means a benign PS. `rng` seeds the attack's private
  // randomness.
  ParameterServer(std::size_t index, byz::AttackPtr attack, core::Rng rng,
                  std::size_t history_limit = 16);

  std::size_t index() const { return index_; }
  bool is_byzantine() const { return attack_ != nullptr; }
  const byz::Attack* attack() const { return attack_.get(); }

  // Model every PS holds before round 0 (w₀), used when N_i is empty.
  void set_initial_model(std::vector<float> w0);

  // Installs a robust PS-side aggregation rule (defense against Byzantine
  // clients); nullptr (the default) means the paper's plain mean.
  void set_aggregator(std::shared_ptr<const Aggregator> aggregator);

  // Model-aggregation stage of round `round`: the aggregation rule applied
  // to the received local models, or the previous aggregate when none
  // arrived.
  void aggregate_round(std::uint64_t round,
                       const std::vector<std::vector<float>>& received);

  // Payload sent to `client` in the dissemination stage (honest aggregate
  // for a benign PS; the attack's output for a Byzantine one).
  std::vector<float> disseminate(std::uint64_t round, std::size_t client);

  // The PS side of a round; every engine only schedules it, as it does
  // fl::ClientStep. accept() moves one upload in (stateful wire payloads
  // decoded per client stream) and returns false, keeping the first copy,
  // on a duplicate sender. aggregate() is aggregate_round over the
  // accepted models in ascending client order (float sums are
  // order-dependent), then clears them. broadcast() is disseminate(round,
  // client) encoded on the PS → client stream (keep_encoded also keeps
  // the bytes a real transport frames), or nullopt for a silent PS. An
  // honest PS encodes its aggregate once per stateless encoding and
  // copies those bytes to every recipient.
  bool accept(net::Message upload);
  void aggregate(std::uint64_t round);
  std::optional<net::Message> broadcast(std::uint64_t round,
                                        std::size_t client,
                                        bool keep_encoded = false);
  // Broadcast encoding of every client (f32 unless set; resets every
  // stream, so it comes first) and of one client (a transport peer's
  // announce; takes effect only before that client's first broadcast).
  void set_wire_encoding(const WireEncodingSpec& spec);
  void set_client_encoding(std::size_t client, const WireEncodingSpec& spec);

  const std::vector<float>& honest_aggregate() const { return aggregate_; }
  // Honest aggregates of completed earlier rounds, oldest first, bounded by
  // history_limit.
  const std::vector<std::vector<float>>& history() const { return history_; }
  // Clients that uploaded in the last aggregate_round (|N_i| statistics).
  std::size_t last_upload_count() const { return last_upload_count_; }

  // Mutable state for crash/recovery handoff. The attack is deliberately
  // excluded: a crashed PS's adversary does not lose its memory, and
  // AttackPtr is not copyable anyway.
  struct Snapshot {
    std::vector<float> aggregate;
    std::vector<std::vector<float>> history;
    std::size_t last_upload_count = 0;
    core::Rng rng{0};
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);
  // Wipes the mutable state back to "before round 0": aggregate = w₀,
  // empty history, no accepted uploads — what a crashed PS has lost.
  void reset_state();

  // Swaps the dissemination-edge behavior mid-run (scenario attack-mix
  // switches). nullptr makes the PS benign.
  void set_attack(byz::AttackPtr attack);

 private:
  std::size_t index_;
  byz::AttackPtr attack_;
  core::Rng rng_;
  std::size_t history_limit_;
  std::shared_ptr<const Aggregator> aggregator_;  // nullptr -> plain mean
  std::vector<float> initial_model_;  // w₀, kept for attacks that anchor on it
  std::vector<float> aggregate_;
  std::vector<std::vector<float>> history_;
  std::size_t last_upload_count_ = 0;
  std::map<std::size_t, ModelVector> accepted_;  // keyed by client
  WireChannelBook uplinks_{WireEncodingSpec{}};    // keyed by client
  WireChannelBook downlinks_{WireEncodingSpec{}};  // keyed by client
  // An honest PS's aggregate under each stateless encoding (by format
  // tag), encoded on first broadcast and dropped whenever aggregate_
  // changes. Attacks and stateful streams encode per recipient.
  std::map<std::uint8_t, WireEncodeResult> encoded_aggregate_;
};

// ---- construction shared by every engine ----

// Which PS indices are Byzantine under `fed`: 0..B−1 for "first"
// placement, else B indices drawn once on the "byz-placement" stream —
// the same draw in every engine and every node process.
std::vector<bool> byzantine_servers(const FedMsConfig& fed);

// PS `index` of `fed`, holding w₀: fed.attack when byzantine_servers(fed)
// marks it, its private ("attack", index) stream, fed.server_aggregator
// unless that is the plain mean, and fed.wire_encoding for broadcasts.
ParameterServer make_parameter_server(const FedMsConfig& fed,
                                      std::size_t index,
                                      std::vector<float> w0);

}  // namespace fedms::fl
