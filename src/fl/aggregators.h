// Aggregation rules over collections of flat model vectors.
//
// Two distinct places in Fed-MS aggregate:
//   * each PS averages the local models it received (plain mean);
//   * each client runs the defense Def() over the P disseminated global
//     models — the paper's choice is the coordinate-wise β-trimmed mean.
// The same interface also hosts the classical Byzantine-robust baselines
// (coordinate median, Krum, geometric median) so ablation benches can swap
// the client-side filter and compare them under *server-side* attacks.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace fedms::core {
class ThreadPool;
}

namespace fedms::fl {

using ModelVector = std::vector<float>;

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // Combines the given models (all the same dimension, at least one).
  virtual ModelVector aggregate(
      const std::vector<ModelVector>& models) const = 0;

  virtual std::string name() const = 0;

  // Minimum number of input models the rule is defined for (e.g. Krum
  // needs n > f + 2). `aggregate_or_mean` falls back to the mean below it.
  virtual std::size_t min_models() const { return 1; }
};

using AggregatorPtr = std::unique_ptr<Aggregator>;

// ---- free-function kernels (also used directly by tests/benches) ----

// Arithmetic mean per coordinate.
ModelVector mean_aggregate(const std::vector<ModelVector>& models);

// ---- sharded execution ----
//
// The trimmed mean and the PS mean are per-coordinate independent, so
// their cost shards across cores by coordinate range with bit-identical
// output (each coordinate's arithmetic is untouched; shards are aligned
// to the cache-block width, and every shard re-establishes the caller's
// fenv rounding mode — pool workers inherit the mode of the thread that
// built the pool, not the caller's). The event-loop runtime uses this so
// filter cost scales with cores, not clients.
//
// `set_aggregation_pool` installs a process-global pool consulted by
// `trimmed_mean` / `mean_aggregate` (and hence by ParameterServer and
// apply_client_filter) — nullptr (the default) keeps every path serial.
// Install at setup time, before aggregation runs; the pool must outlive
// its use. The explicit-pool overloads bypass the global.
void set_aggregation_pool(core::ThreadPool* pool);
core::ThreadPool* aggregation_pool();

ModelVector mean_aggregate(const std::vector<ModelVector>& models,
                           core::ThreadPool& pool);
ModelVector trimmed_mean(const std::vector<ModelVector>& models,
                         std::size_t trim, core::ThreadPool& pool);

// ---- trim-count derivation ----
//
// The paper's filter discards exactly ⌊β·P⌋ values per side with β = B/P,
// and the robustness guarantee needs that count to be ≥ B. Three helpers
// keep the derivation honest:
//
//   beta_trim_count     ⌊β·count⌋ for the CLI "trmean:<beta>" path, with an
//                       epsilon floor so a β that round-tripped through
//                       text or binary rounding (0.3·10 = 2.999...96,
//                       to_string(1/7.)·7 = 0.999999) does not lose a unit
//                       to double truncation.
//   client_trim_target  the run-level per-side trim for a client filter
//                       configured as trmean:<β> in a run with P servers
//                       and B Byzantine: snaps to the integer B whenever
//                       β·P is within 1e-3 of it (the coupled β = B/P
//                       case, however the double was produced), otherwise
//                       beta_trim_count(β, P) — ablations that sweep β
//                       independently of B keep their exact ⌊β·P⌋.
//   degraded_trim_count min(target, ⌊(P'−1)/2⌋) for a candidate set
//                       thinned to P' ≤ P by timeouts/loss: never trims
//                       fewer than the target while P' > 2·target, and
//                       always leaves at least one survivor.

// ⌊β·count⌋ with an epsilon floor. Precondition: 0 ≤ β < 0.5.
std::size_t beta_trim_count(double beta, std::size_t count);

// Per-side trim a client filter should target at full quorum (see above).
std::size_t client_trim_target(double beta, std::size_t servers,
                               std::size_t byzantine);

// Per-side trim over a degraded candidate set of size `received`.
std::size_t degraded_trim_count(std::size_t target, std::size_t received);

// The paper's trmean_β: per coordinate, discard the ⌊β·P⌋ largest and
// ⌊β·P⌋ smallest values and average the rest (e.g. trmean_0.2 over
// {1,2,3,4,5} = mean{2,3,4} = 3). Non-finite values sort as +∞ so NaN
// poisoning lands in the trimmed tail whenever the trim budget covers it;
// −0.0 canonicalizes to +0.0 so equal-comparing values are bit-identical
// and tie-breaks can never change a sum.
// Precondition: 0 ≤ β < 0.5 and at least one value survives the trim.
//
// Implementation: one lane kernel. Four adjacent coordinates share a
// generic (GCC/Clang vector_size) float vector, and the P x d model matrix
// streams through model-major in cache-sized coordinate blocks. Per lane
// the kernel keeps a model-order double total and the trim smallest and
// largest values, which every value passes through by branch-free min/max
// compare-exchange, and returns total − tails. Columns carrying ±∞/NaN
// (and every column when the trim is large) instead sort just the kept
// window after two std::nth_element partitions. Every client runs this
// filter every round, so it is the client-side hot loop Fed-MS adds over
// FedAvg.
//
// Determinism contract (ARCHITECTURE.md): the per-column arithmetic is
// pinned to one canonical case analysis, so this function and
// trimmed_mean_reference return BITWISE identical vectors for every
// input, per rounding mode, for any thread count or shard width. The lane
// vectors use no ISA intrinsics, so every target compiles the same
// per-lane IEEE operations.
ModelVector trimmed_mean(const std::vector<ModelVector>& models, double beta);

// Explicit-trim overload: discards exactly `trim` values per side. The
// run-level callers (FedMsRun / AsyncFedMsRun / run_client_node) derive
// the count from the integer B via client_trim_target +
// degraded_trim_count instead of re-deriving it from a double each call.
// Precondition: 2·trim < models.size().
ModelVector trimmed_mean(const std::vector<ModelVector>& models,
                         std::size_t trim);

// The seed's per-coordinate gather + full-sort implementation, kept as the
// oracle for the equivalence, determinism and sharded-filter tests.
// Identical semantics (including NaN-sorts-as-+∞) and identical BITS: it
// runs the same canonical per-column arithmetic as trimmed_mean, one
// column at a time over a fully sorted copy.
ModelVector trimmed_mean_reference(const std::vector<ModelVector>& models,
                                   double beta);
ModelVector trimmed_mean_reference(const std::vector<ModelVector>& models,
                                   std::size_t trim);

// Per-coordinate median (lower of the two middles for even counts — the
// β→0.5 limit of the trimmed mean family).
ModelVector coordinate_median(const std::vector<ModelVector>& models);

// Krum (Blanchard et al. 2017): returns the single model whose summed
// squared distance to its n − f − 2 nearest neighbours is smallest.
// Precondition: models.size() > f + 2.
ModelVector krum(const std::vector<ModelVector>& models,
                 std::size_t byzantine_count);

// Smoothed geometric median via Weiszfeld iterations (Pillutla et al.).
ModelVector geometric_median(const std::vector<ModelVector>& models,
                             std::size_t max_iterations = 64,
                             double tolerance = 1e-8);

// ---- Aggregator wrappers ----

class MeanAggregator final : public Aggregator {
 public:
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "mean"; }
};

class TrimmedMeanAggregator final : public Aggregator {
 public:
  explicit TrimmedMeanAggregator(double beta);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override;
  double beta() const { return beta_; }

 private:
  double beta_;
};

class MedianAggregator final : public Aggregator {
 public:
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "median"; }
};

class KrumAggregator final : public Aggregator {
 public:
  explicit KrumAggregator(std::size_t byzantine_count);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "krum"; }
  std::size_t min_models() const override { return byzantine_count_ + 3; }

 private:
  std::size_t byzantine_count_;
};

class GeometricMedianAggregator final : public Aggregator {
 public:
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "geomedian"; }
};

// Krum that averages the m best-scoring models instead of returning one
// (Multi-Krum, Blanchard et al. 2017). Precondition: n > f + 2.
ModelVector multi_krum(const std::vector<ModelVector>& models,
                       std::size_t byzantine_count, std::size_t select);

// Bulyan (El Mhamdi et al. 2018): repeatedly runs Krum to select
// n − 2f candidates, then takes the coordinate-wise β-trimmed mean of the
// selection. Precondition: n ≥ 4f + 3.
ModelVector bulyan(const std::vector<ModelVector>& models,
                   std::size_t byzantine_count);

class MultiKrumAggregator final : public Aggregator {
 public:
  MultiKrumAggregator(std::size_t byzantine_count, std::size_t select);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "multikrum"; }
  std::size_t min_models() const override { return byzantine_count_ + 3; }

 private:
  std::size_t byzantine_count_;
  std::size_t select_;
};

class BulyanAggregator final : public Aggregator {
 public:
  explicit BulyanAggregator(std::size_t byzantine_count);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override { return "bulyan"; }
  std::size_t min_models() const override { return 4 * byzantine_count_ + 3; }

 private:
  std::size_t byzantine_count_;
};

// Trimmed mean for the unknown-B setting. Chen/Zhang/Huang's trade-off —
// over-estimating the Byzantine count costs bounded variance while
// under-estimating forfeits the robustness guarantee entirely — so the
// per-call estimate B̂ is biased up and floored at `initial_estimate`:
//
//   1. center  = coordinate median of the candidates (selection only, no
//      FP arithmetic, so it is rounding-mode independent);
//   2. score_i = Σ_j (model_i[j] − center[j])² in double; a model with any
//      non-finite coordinate (or an overflowing sum) scores +∞;
//   3. a candidate is an outlier when score_i > 4·median(score) + 1e-9
//      (strictly greater: P identical candidates flag nobody) or is
//      non-finite — the honest majority (2B < P) anchors both the center
//      and the median score;
//   4. B̂ = min(max(#outliers, initial_estimate), ⌊(P−1)/2⌋) — never more
//      than the trimmed mean can survive, never below the floor.
//
// The estimation arithmetic runs pinned to FE_TONEAREST (a robustness
// count must not depend on the caller's fenv — the same contract as
// beta_trim_count); the final trimmed_mean then executes under the
// ambient mode and shards across the aggregation pool bit-identically
// like every trimmed mean.
class AdaptiveTrimAggregator final : public Aggregator {
 public:
  explicit AdaptiveTrimAggregator(std::size_t initial_estimate = 1);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override;
  std::size_t initial_estimate() const { return initial_estimate_; }

  // The per-call B̂ — the per-side trim aggregate() will apply. Exposed so
  // apply_client_filter can report it to the Theorem-1 envelope oracle and
  // tests can pin the over/under-estimation invariants directly.
  std::size_t estimate_trim(const std::vector<ModelVector>& models) const;

 private:
  std::size_t initial_estimate_;
};

// FedGreed-style selection (Kritharakis et al.): score every candidate by
// its loss on a held-out root batch and average the `select` lowest-loss
// models. The root scorer is installed by the experiment layer
// (install_fedgreed_root_score — a real root-batch evaluation drawn from
// FedMsConfig::fedgreed_root_samples held-out test examples); without one
// the self-contained proxy score is the squared L2 distance to the
// coordinate median, so the rule stays well-defined for convex/fuzz
// harnesses that have no dataset. Scoring runs pinned to FE_TONEAREST so
// the selected SET is rounding-mode independent (ties break by candidate
// index); the final mean executes under the ambient mode and shards like
// every mean. The scorer is stateful and NOT thread-safe — every runtime
// applies the client filter serially (or per-process).
class FedGreedAggregator final : public Aggregator {
 public:
  using RootScoreFn = std::function<double(const ModelVector&)>;

  explicit FedGreedAggregator(std::size_t select);
  ModelVector aggregate(const std::vector<ModelVector>& models) const override;
  std::string name() const override;
  std::size_t select() const { return select_; }

  void set_root_score(RootScoreFn score) { root_score_ = std::move(score); }

 private:
  std::size_t select_;
  RootScoreFn root_score_;
};

// Installs `score` when `filter` is a FedGreedAggregator; returns false
// (no-op) for every other rule. The experiment layers (sim, node runner,
// scenario engine) call this with the root-batch evaluator so all
// execution paths derive the identical selection — the --verify contract.
bool install_fedgreed_root_score(Aggregator& filter,
                                 FedGreedAggregator::RootScoreFn score);

// Factory for CLI use: "mean", "trmean:<beta>", "median", "krum:<f>",
// "multikrum:<f>:<m>", "bulyan:<f>", "geomedian", "adaptive[:<init>]",
// "fedgreed:<k>".
AggregatorPtr make_aggregator(const std::string& spec);

// The defense zoo for a (P, B) topology: every rule family the factory
// knows, parameterized from the topology — mean, trmean:B/P, median,
// krum:B, multikrum:B:(P−2B), bulyan:B (only when P ≥ 4B + 3, its
// precondition), geomedian, adaptive, fedgreed:(P−2B).
// bench/attack_gallery and tools/fedms_matrix iterate this list; the
// trmean β text is rendered under a pinned rounding mode so the specs are
// byte-identical for any caller fenv.
std::vector<std::string> default_defense_zoo(std::size_t servers,
                                             std::size_t byzantine);

// Applies `rule` when its preconditions hold for models.size() (e.g. the
// trimmed mean needs at least one survivor, Krum needs n > f + 2); falls
// back to the plain mean otherwise. Used where the model count is not
// statically known — a PS aggregating whatever subset N_i uploaded, or a
// client filtering after network loss.
ModelVector aggregate_or_mean(const Aggregator& rule,
                              const std::vector<ModelVector>& models);

// The run-level client-side Def(): when `rule` is the trimmed mean, trims
// degraded_trim_count(client_trim_target(β, P, B), P') per side — the
// count the robustness analysis needs, derived from the integer B when the
// configured β is coupled to it, and never under-trimming below B while
// the candidate set still out-votes the Byzantine minority. The adaptive
// trimmed mean instead trims its own per-call estimate B̂ (B is unknown to
// it by construction — the configured B is deliberately ignored). Any
// other rule falls through to aggregate_or_mean. All three execution
// paths (sync sim, event-driven runtime, transport nodes) call this one
// helper, so the filter stays bit-for-bit identical across them.
ModelVector apply_client_filter(const Aggregator& rule,
                                const std::vector<ModelVector>& models,
                                std::size_t servers, std::size_t byzantine);

// Trim reported by the overload below when the configured rule is not a
// trimmed mean (no per-side trim applies — median, Krum, mean, ...).
inline constexpr std::size_t kNoTrim = static_cast<std::size_t>(-1);

// As above, additionally reporting through *trim_used the per-side trim
// actually applied (the fixed derivation for trmean, the per-call B̂ for
// adaptive, kNoTrim for every non-trimming rule). The fuzz harness's
// Theorem-1 envelope oracle keys on this value: whenever trim_used >=
// #Byzantine candidates in the input, the output must lie in the
// coordinate-wise honest envelope.
ModelVector apply_client_filter(const Aggregator& rule,
                                const std::vector<ModelVector>& models,
                                std::size_t servers, std::size_t byzantine,
                                std::size_t* trim_used);

// ---- spec validation (CLI front door) ----
//
// make_aggregator contract-aborts on malformed specs — correct for
// programmatic callers, hostile for a typo on the command line. The tools
// pre-validate with this checker and print the returned message as a
// one-line error instead. Empty string = valid.
std::string check_aggregator_spec(const std::string& spec);

// The β of a "trmean:<beta>" spec, or nullopt for any other rule.
// Precondition: check_aggregator_spec(spec) passed.
std::optional<double> trmean_beta(const std::string& spec);

// ---- invariant-oracle helpers (src/testing) ----

// Index of the first non-finite coordinate, or model.size() if all finite.
std::size_t first_nonfinite_coordinate(const ModelVector& model);

// Coordinate-wise envelope check behind the fuzz harness's Theorem-1
// oracle: true when every model[j] lies within
// [min_i reference[i][j] − tol, max_i reference[i][j] + tol] where
// tol = tolerance · max(1, |min|, |max|) absorbs the trimmed mean's
// total−tails summation rounding. A non-finite model[j] always fails.
// Precondition: reference non-empty, all dimensions equal. On failure,
// *bad_coordinate (when non-null) gets the first offending index.
bool within_coordinate_envelope(const ModelVector& model,
                                const std::vector<ModelVector>& reference,
                                double tolerance,
                                std::size_t* bad_coordinate = nullptr);

}  // namespace fedms::fl
