// One client's side of Algorithm 1, shared by every round engine: the
// sync loop (fl::FedMsRun), the event-driven runtime
// (runtime::AsyncFedMsRun) and the transport engine
// (transport::run_client_node) only schedule it.
//
//   train()    capture the round-start model when a forgery or DP needs
//              it, then run E local SGD steps;
//   uploads()  pick the target PSs ("ps-choice"), forge the payload
//              (Byzantine client, "client-attack") or clip and noise it
//              (DP, "dp-noise"), and encode it per (client → PS) link;
//   filter()   Def() over the candidates in ascending PS order, trim
//              re-derived from B (apply_client_filter); install() it.
//
// Every stream is client k's own and derives from the root seed, so the
// step replays bit-identically in any engine and any process.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "byz/client_attacks.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/config.h"
#include "fl/learner.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"
#include "net/message.h"

namespace fedms::fl {

class ClientStep {
 public:
  // Client `k` of `fed`. `learner` and the (shared, serially applied)
  // `filter` are borrowed and must outlive the step.
  ClientStep(const FedMsConfig& fed, std::size_t k, LocalLearner& learner,
             const Aggregator& filter);

  // Re-derives every stream the step owns from `round_seeds` (the async
  // engine's round-keyed streams under churn).
  void rekey(const core::SeedSequence& round_seeds);

  // Stage 1: E local SGD steps; returns their mean training loss.
  double train();

  // Stage 2: one upload message per target PS. Under a wire encoding the
  // payload is the sender-side round-trip (encode_payload); under f32 all
  // but the last target get a copy and the last the moved payload.
  std::vector<net::Message> uploads(std::uint64_t round,
                                    bool keep_encoded = false);

  // Stage 3: Def() over `candidates` (ascending PS order), reporting the
  // trim applied through *trim when non-null.
  ModelVector filter(const std::vector<ModelVector>& candidates,
                     std::size_t* trim = nullptr) const;
  void install(const ModelVector& model) { learner_->set_parameters(model); }

 private:
  // Gaussian mechanism on the round update: clip Δ to C in L2, then add
  // per-coordinate noise with stddev z·C.
  void privatize(std::vector<float>& payload);

  std::size_t k_;
  LocalLearner* learner_;
  const Aggregator* filter_;
  std::size_t servers_;
  std::size_t byzantine_servers_;
  std::size_t local_iterations_;
  double dp_clip_norm_;
  double dp_noise_multiplier_;
  UploadStrategyPtr upload_;
  byz::ClientAttackPtr attack_;  // set only for a Byzantine client
  core::Rng ps_choice_;
  core::Rng attack_rng_;
  core::Rng dp_rng_;
  std::vector<float> round_start_;  // captured by train() when needed
  WireEncodingSpec wire_spec_;
  WireChannelBook uplinks_;  // one stream per target PS
};

// Moves a map's models out in ascending key order (PS index for filter
// candidates, client index for PS uploads); the keys go to *origins when
// non-null.
std::vector<ModelVector> ascending_models(
    std::map<std::size_t, ModelVector>& by_index,
    std::vector<std::size_t>* origins = nullptr);

}  // namespace fedms::fl
