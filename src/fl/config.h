// Experiment configuration mirroring the paper's Table II.
#pragma once

#include <cstdint>
#include <string>

namespace fedms::fl {

struct FedMsConfig {
  // --- federated topology (Table II: K = 50, P = 10) ---
  std::size_t clients = 50;    // K
  std::size_t servers = 10;    // P
  std::size_t byzantine = 2;   // B (ε = B/P; Table II default ε = 20%)

  // --- protocol ---
  std::size_t local_iterations = 3;  // E (Table II: 3)
  std::size_t rounds = 20;           // T, global training rounds
  std::string upload = "sparse";     // sparse | full | multi:<m>
  // Client-side defense Def(): an aggregator spec. The paper's Fed-MS is
  // trmean:<β> with β = B/P; Vanilla FL (no defense) is "mean".
  std::string client_filter = "trmean:0.2";
  // Root-batch size for the fedgreed:<k> filter: every client scores the
  // P disseminated models by their loss on this many held-out test
  // examples (drawn once per run on the "fedgreed-root" stream) and
  // averages the k lowest-loss ones. Ignored by every other filter.
  std::size_t fedgreed_root_samples = 64;
  // PS-side aggregation of the uploaded local models. The paper uses the
  // plain mean; a robust rule here defends against Byzantine *clients*
  // (the extension experiments).
  std::string server_aggregator = "mean";
  std::string attack = "noise";  // behaviour of the B Byzantine PSs

  // Which PS indices are Byzantine. "first" pins them to 0..B-1 (keeps
  // benign/Byzantine identity stable across rounds, as in the paper);
  // "random" samples them once per run from the seed.
  std::string byzantine_placement = "first";

  // --- Byzantine clients (extension: the paper's stated future work) ---
  std::size_t byzantine_clients = 0;
  std::string client_attack = "benign";  // forgery of Byzantine clients
  std::string byzantine_client_placement = "first";  // first | random

  // --- partial participation (extension) ---
  // Fraction of clients that train and upload each round (1.0 = all, the
  // paper's setting), drawn uniformly per round (fl::draw_participants).
  // Non-participants still receive broadcasts and filter.
  double participation = 1.0;

  // --- negotiated wire encoding (src/fl/wire_encoding.h) ---
  // Applied to every model payload in both directions: f32 (lossless
  // default), fp16, int8, delta+<base>, or topk:<frac>. The receiver
  // aggregates the decoded values; traffic stats count the encoded bytes.
  std::string wire_encoding = "f32";

  // --- differential privacy (extension; the §II DP defense family) ---
  // When dp_clip_norm > 0, each client's round update Δ = w − w_start is
  // L2-clipped to dp_clip_norm and Gaussian noise N(0, (dp_noise_multiplier
  // · dp_clip_norm)² I) is added before upload (the Gaussian mechanism on
  // model deltas). 0 disables.
  double dp_clip_norm = 0.0;
  double dp_noise_multiplier = 0.0;

  // --- telemetry ---
  std::size_t eval_every = 1;    // evaluate every N rounds
  std::size_t eval_clients = 0;  // 0 = average over all K clients

  // --- execution ---
  // Worker threads for the local-training stage (clients are independent;
  // results are bit-identical regardless of this value since every client
  // owns its RNG streams). 0 = run inline on the calling thread.
  std::size_t worker_threads = 0;

  // --- reproducibility ---
  std::uint64_t seed = 1;

  double byzantine_fraction() const {
    return servers == 0 ? 0.0 : double(byzantine) / double(servers);
  }

  // Contract-checks the cross-field invariants (B ≤ P/2, K ≥ 1, ...).
  void validate() const;

  // Same invariants as validate(), reported as a one-line error message
  // instead of a contract abort — empty string when the config is valid.
  // The CLI tools call this before validate() so a bad flag combination
  // produces an actionable diagnostic rather than a core dump.
  std::string check() const;

  std::string to_string() const;
};

}  // namespace fedms::fl
