#include "fl/aggregators.h"

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/contracts.h"
#include "core/rounding.h"
#include "core/thread_pool.h"

// This TU computes under runtime-switched fenv rounding modes (the
// determinism contract sweeps all four) and pins its own mode inside the
// trim-count snap; it is compiled with -frounding-math (GCC ignores the
// pragma) so FP expressions are not folded or moved across fesetround.
#if defined(__clang__)
#pragma STDC FENV_ACCESS ON
#endif

namespace fedms::fl {

namespace {

std::atomic<core::ThreadPool*> g_aggregation_pool{nullptr};

void check_models(const std::vector<ModelVector>& models) {
  FEDMS_EXPECTS(!models.empty());
  const std::size_t d = models.front().size();
  FEDMS_EXPECTS(d > 0);
  for (const auto& m : models) FEDMS_EXPECTS(m.size() == d);
}

// NaN-aware comparison key: NaN sorts as +∞ so the trim removes it from
// the high side (±∞ already order correctly and land in the tails).
// −0.0 canonicalizes to +0.0: the two zeros compare equal, so which one a
// selection routine leaves in a tail vs the kept window is tie-break
// dependent — and x + (−0.0) vs x + (+0.0) round differently under
// FE_DOWNWARD (0.0 + (−0.0) = −0.0 there). After canonicalization every
// pair of equal-comparing floats is bit-identical, so tie resolution can
// never change a sum. (The explicit compare, not `v + 0.0f`, which is
// itself mode-dependent for v = −0.0.)
inline float sort_key(float v) {
  if (std::isnan(v)) return std::numeric_limits<float>::infinity();
  if (v == 0.0f) return 0.0f;
  return v;
}

// Coordinate block: the lane kernel keeps one block's per-coordinate state
// L1-resident while each model row streams through once per block, and
// sharded execution aligns shard boundaries to it.
constexpr std::size_t kBlock = 64;
// Largest trim the lane kernel's compare-exchange tails handle; beyond it
// two nth_element partitions beat 2·trim compare-exchanges per value.
constexpr std::size_t kMaxFastTrim = 16;

// Mean of coordinates [j0, j1) into out — the per-shard kernel.
void mean_range(const std::vector<ModelVector>& models, std::size_t j0,
                std::size_t j1, ModelVector& out) {
  const double inv = 1.0 / double(models.size());
  for (std::size_t j = j0; j < j1; ++j) {
    double acc = 0.0;
    for (const auto& m : models) acc += m[j];
    out[j] = static_cast<float>(acc * inv);
  }
}

// ---- canonical per-column trimmed-mean arithmetic ----
//
// The determinism contract (ARCHITECTURE.md) requires the lane kernel
// (trimmed_mean) and the full-sort oracle (trimmed_mean_reference) to
// agree BITWISE, per rounding mode, for every input. That only holds if
// both execute the same FP operations in the same order, so the
// arithmetic is pinned to one case analysis over the canonicalized column
// (sort_key applied — equal floats bit-identical, so tail selection ties
// cannot change any sum):
//
//   1. trim == 0:        out = float(total / kept), total = Σ double(v_i)
//                        in MODEL order.
//   2. trim in (0, kMaxFastTrim] and the column all-finite:
//                        out = float((total − tails) / kept) with total as
//                        above and tails = Σ_{t<trim} (low[t] + high[t]) in
//                        double, low/high the trim smallest/largest values
//                        each sorted ASCENDING.
//   3. otherwise (±∞/NaN in the column, or trim > kMaxFastTrim):
//                        out = float((Σ kept values ASCENDING) / kept)
//                        (total − tails is unusable here: ∞ − ∞ = NaN).
//
// Which case applies depends only on (trim, column contents) — never on
// thread count, shard boundary, or rounding mode — so every execution
// shape lands on identical bits.

// Case 3 over a gathered, canonicalized column: the ascending kept-window
// sum. Reorders column[].
float kept_window_mean(float* column, std::size_t p, std::size_t trim) {
  std::nth_element(column, column + trim, column + p);
  std::nth_element(column + trim, column + (p - trim), column + p);
  std::sort(column + trim, column + (p - trim));
  double acc = 0.0;
  for (std::size_t i = trim; i < p - trim; ++i) acc += column[i];
  return static_cast<float>(acc / double(p - 2 * trim));
}

// Four adjacent coordinates per lane group, as GCC/Clang generic vectors:
// the compiler lowers them to the target's SIMD (SSE2 at baseline x86-64,
// NEON on AArch64) or to scalar code, and every lane runs the same IEEE
// operations as the scalar oracle — one source path on every platform.
constexpr std::size_t kLanes = 4;
typedef float Lanes __attribute__((vector_size(16)));
typedef double LaneTotals __attribute__((vector_size(32)));
typedef std::int32_t LaneBits __attribute__((vector_size(16)));

// Branch-free compare-exchange: afterwards each lane of `lo` holds the
// smaller and `hi` the larger of the pair (an XOR swap under the compare
// mask, so both keep exactly the input bits).
inline void compare_exchange(Lanes& lo, Lanes& hi) {
  const LaneBits swap = (hi < lo) & ((LaneBits)lo ^ (LaneBits)hi);
  lo = (Lanes)((LaneBits)lo ^ swap);
  hi = (Lanes)((LaneBits)hi ^ swap);
}

// Loads min(n, kLanes) coordinates from src, zero-padding the rest: the
// last partial lane group reads nothing past the end of a model.
inline Lanes load_lanes(const float* src, std::size_t n) {
  float padded[kLanes] = {};
  if (n < kLanes) {
    std::memcpy(padded, src, n * sizeof(float));
    src = padded;
  }
  Lanes v = {};
  std::memcpy(&v, src, sizeof v);
  return v;
}

// Trimmed mean of coordinates [j0, j1) into out — the per-shard kernel.
// All scratch is call-local, so shards never share mutable state and the
// per-coordinate arithmetic is identical to a serial full-range call.
//
// Cases 1 and 2 run branch-free over lane groups: the P x d matrix is
// streamed model-major one kBlock at a time, and every lane keeps its
// model-order double total plus the trim smallest / largest values in
// ascending slots that each value passes through by compare-exchange — so
// the slots end up exactly the sorted tails case 2 needs (ties are
// bit-identical after sort_key, so which of two equal values a slot keeps
// cannot matter). The last partial lane group is padded with zeros and its
// padding discarded. A column is non-finite exactly when its double total
// is (P finite floats cannot overflow a double; one ±∞ makes the total ±∞
// or NaN), so those columns — the Byzantine case — are redone as case 3,
// as is every column when trim > kMaxFastTrim.
void trimmed_mean_range(const std::vector<ModelVector>& models,
                        std::size_t trim, std::size_t j0, std::size_t j1,
                        ModelVector& out) {
  const std::size_t p = models.size();
  const double kept = double(p - 2 * trim);
  std::vector<float> column(p);
  auto select_mean = [&](std::size_t j) {
    for (std::size_t i = 0; i < p; ++i) column[i] = sort_key(models[i][j]);
    return kept_window_mean(column.data(), p, trim);
  };
  if (trim > kMaxFastTrim) {
    for (std::size_t j = j0; j < j1; ++j) out[j] = select_mean(j);
    return;
  }

  constexpr std::size_t kGroups = kBlock / kLanes;
  const float inf = std::numeric_limits<float>::infinity();
  const Lanes zero = {}, pos_inf = zero + inf, neg_inf = zero - inf;
  LaneTotals totals[kGroups] = {};
  Lanes low[kGroups * kMaxFastTrim] = {}, high[kGroups * kMaxFastTrim] = {};
  for (std::size_t jb = j0; jb < j1; jb += kBlock) {
    const std::size_t width = std::min(kBlock, j1 - jb);
    const std::size_t groups = (width + kLanes - 1) / kLanes;
    for (std::size_t g = 0; g < groups; ++g) {
      totals[g] = LaneTotals{};
      for (std::size_t t = 0; t < trim; ++t) {
        low[g * trim + t] = pos_inf;
        high[g * trim + t] = neg_inf;
      }
    }
    for (std::size_t i = 0; i < p; ++i) {
      const float* row = models[i].data() + jb;
      for (std::size_t g = 0; g < groups; ++g) {
        Lanes v = load_lanes(row + g * kLanes, width - g * kLanes);
        v = v == v ? v : pos_inf;  // sort_key: NaN -> +inf, -0 -> +0
        v = v == zero ? zero : v;
        totals[g] += __builtin_convertvector(v, LaneTotals);
        Lanes carry = v;  // low slots keep the smaller, carry the larger
        for (std::size_t t = 0; t < trim; ++t)
          compare_exchange(low[g * trim + t], carry);
        carry = v;  // high slots, top down, keep the larger
        for (std::size_t t = trim; t-- > 0;)
          compare_exchange(carry, high[g * trim + t]);
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      LaneTotals tails = {};
      for (std::size_t t = 0; t < trim; ++t)
        tails += __builtin_convertvector(low[g * trim + t], LaneTotals) +
                 __builtin_convertvector(high[g * trim + t], LaneTotals);
      const LaneTotals sum = trim == 0 ? totals[g] : totals[g] - tails;
      const Lanes mean = __builtin_convertvector(sum / kept, Lanes);
      const std::size_t j = jb + g * kLanes;
      for (std::size_t l = 0; l < std::min(kLanes, j1 - j); ++l)
        out[j + l] = trim > 0 && !std::isfinite(totals[g][l])
                         ? select_mean(j + l)
                         : mean[l];
    }
  }
}

// Runs `range(j0, j1, out)` over [0, d) sharded across `pool`, shard
// boundaries aligned to kBlock (so the lane kernel's blocking is unchanged).
// Oversplits 4x per worker: the nonfinite-column fallback makes shard cost
// uneven under Byzantine input.
//
// Each shard re-establishes the CALLER's rounding mode before computing:
// pool workers inherit the fenv of the thread that created the pool
// ([cfenv]), so a pool built before a mode switch would otherwise compute
// shards under a stale mode and diverge from the serial path — the
// "incidentally bit-identical" hazard the determinism contract closes.
template <typename RangeFn>
ModelVector sharded_by_coordinate(std::size_t d, core::ThreadPool& pool,
                                  const RangeFn& range) {
  ModelVector out(d);
  const std::size_t blocks = (d + kBlock - 1) / kBlock;
  std::size_t shards =
      pool.worker_count() == 0 ? 1 : pool.worker_count() * 4;
  shards = std::min(shards, blocks);
  const std::size_t width =
      ((blocks + shards - 1) / shards) * kBlock;  // per-shard coordinates
  const int caller_mode = std::fegetround();
  pool.parallel_for(shards, [&](std::size_t s) {
    const core::ScopedRoundingMode mode(caller_mode);
    const std::size_t j0 = s * width;
    const std::size_t j1 = std::min(d, j0 + width);
    if (j0 < j1) range(j0, j1, out);
  });
  return out;
}

}  // namespace

void set_aggregation_pool(core::ThreadPool* pool) {
  g_aggregation_pool.store(pool, std::memory_order_release);
}

core::ThreadPool* aggregation_pool() {
  return g_aggregation_pool.load(std::memory_order_acquire);
}

std::size_t beta_trim_count(double beta, std::size_t count) {
  FEDMS_EXPECTS(beta >= 0.0 && beta < 0.5);
  // ⌊β·count⌋ with an epsilon floor. β typically arrives as a decimal
  // round-trip of B/P — "trmean:0.3" times P = 10 is 2.9999999999999996 in
  // doubles, and TrimmedMeanAggregator::name() truncates to six digits
  // (1/7 → 0.142857, ·7 = 0.999999) — so a bare static_cast would trim one
  // unit short of what the text means. 1e-4 covers both error sources for
  // any count ≤ 100 while staying far below the 1/count spacing of
  // intentional β choices.
  //
  // Pinned to round-to-nearest: under an ambient directed mode the β·count
  // product and the epsilon add each shift by an ulp, so a β sitting on
  // the snap boundary could trim one unit more or fewer depending on the
  // caller's FPU state — a robustness count must never be a function of
  // the rounding mode.
  const core::ScopedRoundingMode nearest(FE_TONEAREST);
  const std::size_t trim =
      static_cast<std::size_t>(beta * double(count) + 1e-4);
  return trim;
}

std::size_t client_trim_target(double beta, std::size_t servers,
                               std::size_t byzantine) {
  FEDMS_EXPECTS(beta >= 0.0 && beta < 0.5);
  // β and B are coupled (β = B/P) whenever the filter was configured from
  // the run topology; recognize that case across any double representation
  // the coupling survived and return the integer B itself. An ablation
  // sweeping β independently of B lands outside the 1e-3 window and keeps
  // its exact ⌊β·P⌋. Mode-pinned for the same reason as beta_trim_count:
  // the 1e-3 window test must not flip with the ambient rounding mode.
  bool coupled = false;
  {
    const core::ScopedRoundingMode nearest(FE_TONEAREST);
    coupled = std::abs(beta * double(servers) - double(byzantine)) < 1e-3;
  }
  if (coupled) return byzantine;
  return beta_trim_count(beta, servers);
}

std::size_t degraded_trim_count(std::size_t target, std::size_t received) {
  if (received == 0) return 0;
  // min(target, ⌊(P'−1)/2⌋): trimming ⌊(P'−1)/2⌋ per side always leaves a
  // survivor, and the min only engages once P' ≤ 2·target — up to that
  // point the full target count is removed, unlike ⌊β·P'⌋ which silently
  // under-trims below B as soon as P' < P.
  return std::min(target, (received - 1) / 2);
}

ModelVector mean_aggregate(const std::vector<ModelVector>& models) {
  check_models(models);
  if (core::ThreadPool* pool = aggregation_pool())
    return mean_aggregate(models, *pool);
  const std::size_t d = models.front().size();
  ModelVector out(d);
  mean_range(models, 0, d, out);
  return out;
}

ModelVector mean_aggregate(const std::vector<ModelVector>& models,
                           core::ThreadPool& pool) {
  check_models(models);
  return sharded_by_coordinate(
      models.front().size(), pool,
      [&](std::size_t j0, std::size_t j1, ModelVector& out) {
        mean_range(models, j0, j1, out);
      });
}

ModelVector trimmed_mean(const std::vector<ModelVector>& models,
                         double beta) {
  FEDMS_EXPECTS(beta >= 0.0 && beta < 0.5);
  return trimmed_mean(models, beta_trim_count(beta, models.size()));
}

ModelVector trimmed_mean(const std::vector<ModelVector>& models,
                         std::size_t trim) {
  check_models(models);
  FEDMS_EXPECTS(2 * trim < models.size());
  if (core::ThreadPool* pool = aggregation_pool())
    return trimmed_mean(models, trim, *pool);
  const std::size_t d = models.front().size();
  ModelVector out(d);
  trimmed_mean_range(models, trim, 0, d, out);
  return out;
}

ModelVector trimmed_mean(const std::vector<ModelVector>& models,
                         std::size_t trim, core::ThreadPool& pool) {
  check_models(models);
  FEDMS_EXPECTS(2 * trim < models.size());
  return sharded_by_coordinate(
      models.front().size(), pool,
      [&](std::size_t j0, std::size_t j1, ModelVector& out) {
        trimmed_mean_range(models, trim, j0, j1, out);
      });
}

ModelVector trimmed_mean_reference(const std::vector<ModelVector>& models,
                                   double beta) {
  FEDMS_EXPECTS(beta >= 0.0 && beta < 0.5);
  return trimmed_mean_reference(models,
                                beta_trim_count(beta, models.size()));
}

ModelVector trimmed_mean_reference(const std::vector<ModelVector>& models,
                                   std::size_t trim) {
  check_models(models);
  const std::size_t p = models.size();
  FEDMS_EXPECTS(2 * trim < p);
  const std::size_t d = models.front().size();
  const std::size_t kept = p - 2 * trim;

  // Gather + full sort per column, then the canonical case analysis
  // (total in model order BEFORE sorting; the sorted column's ends are the
  // ascending tails and its middle the ascending kept window).
  ModelVector out(d);
  std::vector<float> column(p);
  for (std::size_t j = 0; j < d; ++j) {
    double total = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < p; ++i) {
      const float v = sort_key(models[i][j]);
      column[i] = v;
      finite &= bool(std::isfinite(v));
      total += v;
    }
    if (trim == 0) {
      out[j] = static_cast<float>(total / double(kept));
      continue;
    }
    std::sort(column.begin(), column.end());
    if (finite && trim <= kMaxFastTrim) {
      double tails = 0.0;
      for (std::size_t i = 0; i < trim; ++i)
        tails += double(column[i]) + double(column[p - trim + i]);
      out[j] = static_cast<float>((total - tails) / double(kept));
      continue;
    }
    double acc = 0.0;
    for (std::size_t i = trim; i < p - trim; ++i) acc += column[i];
    out[j] = static_cast<float>(acc / double(kept));
  }
  return out;
}

ModelVector coordinate_median(const std::vector<ModelVector>& models) {
  check_models(models);
  const std::size_t p = models.size();
  const std::size_t d = models.front().size();
  ModelVector out(d);
  std::vector<float> column(p);
  const std::size_t mid = (p - 1) / 2;  // lower median
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < p; ++i) column[i] = sort_key(models[i][j]);
    std::nth_element(column.begin(), column.begin() + std::ptrdiff_t(mid),
                     column.end());
    out[j] = column[mid];
  }
  return out;
}

namespace {

// Krum scores: for each model, the summed squared distance to its
// n − f − 2 nearest other models. Lower is more central.
std::vector<double> krum_scores(const std::vector<ModelVector>& models,
                                std::size_t byzantine_count) {
  const std::size_t n = models.size();
  FEDMS_EXPECTS(n > byzantine_count + 2);
  const std::size_t closest = n - byzantine_count - 2;
  const std::size_t d = models.front().size();

  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      double acc = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double delta = double(sort_key(models[a][j])) -
                             double(sort_key(models[b][j]));
        acc += delta * delta;
      }
      // ±inf inputs produce inf or NaN distances; clamp to a huge finite
      // value so the sorts below keep a strict weak ordering.
      if (!std::isfinite(acc)) acc = std::numeric_limits<double>::max();
      dist[a][b] = dist[b][a] = acc;
    }

  std::vector<double> scores(n);
  std::vector<double> row;
  for (std::size_t a = 0; a < n; ++a) {
    row.clear();
    for (std::size_t b = 0; b < n; ++b)
      if (b != a) row.push_back(dist[a][b]);
    std::partial_sort(row.begin(), row.begin() + std::ptrdiff_t(closest),
                      row.end());
    double score = 0.0;
    for (std::size_t i = 0; i < closest; ++i) score += row[i];
    // Non-finite scores (a model containing ±inf/NaN yields inf or NaN
    // distances) must never win the argmin — NaN would poison the
    // comparison order — so pin them to +infinity.
    scores[a] = std::isfinite(score)
                    ? score
                    : std::numeric_limits<double>::infinity();
  }
  return scores;
}

}  // namespace

ModelVector krum(const std::vector<ModelVector>& models,
                 std::size_t byzantine_count) {
  check_models(models);
  const std::vector<double> scores = krum_scores(models, byzantine_count);
  const std::size_t best = static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  return models[best];
}

ModelVector multi_krum(const std::vector<ModelVector>& models,
                       std::size_t byzantine_count, std::size_t select) {
  check_models(models);
  FEDMS_EXPECTS(select > 0 && select <= models.size());
  const std::vector<double> scores = krum_scores(models, byzantine_count);
  std::vector<std::size_t> order(models.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + std::ptrdiff_t(select),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return scores[a] < scores[b];
                    });
  std::vector<ModelVector> selected;
  selected.reserve(select);
  for (std::size_t i = 0; i < select; ++i)
    selected.push_back(models[order[i]]);
  return mean_aggregate(selected);
}

ModelVector bulyan(const std::vector<ModelVector>& models,
                   std::size_t byzantine_count) {
  check_models(models);
  const std::size_t n = models.size();
  const std::size_t f = byzantine_count;
  FEDMS_EXPECTS(n >= 4 * f + 3);
  // Selection phase: iteratively pick the Krum winner from the remainder
  // until n − 2f candidates are chosen.
  std::vector<ModelVector> pool = models;
  std::vector<ModelVector> selected;
  const std::size_t select_count = n - 2 * f;
  while (selected.size() < select_count) {
    if (pool.size() <= 2) {
      // Too few left for a meaningful Krum score; take the rest as-is (the
      // trimming phase still removes f extremes per coordinate).
      for (auto& m : pool) {
        if (selected.size() == select_count) break;
        selected.push_back(std::move(m));
      }
      break;
    }
    // Krum needs pool > f_local + 2; clamp f for the shrinking pool.
    const std::size_t f_local = std::min(f, pool.size() - 3);
    const std::vector<double> scores = krum_scores(pool, f_local);
    // Exact score ties are GENERIC here, not an edge case: once the pool
    // shrinks to f_local + 3 the score is the distance to the single
    // nearest neighbour, so any mutual-nearest pair ties bit-for-bit. A
    // positional tie-break would make the selected set depend on input
    // order; breaking ties by model content keeps bulyan permutation
    // invariant (canonicalized coordinates so ±0.0/NaN compare stably).
    std::size_t best = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      if (scores[i] > scores[best]) continue;
      if (scores[i] < scores[best] ||
          std::lexicographical_compare(
              pool[i].begin(), pool[i].end(), pool[best].begin(),
              pool[best].end(), [](float a, float b) {
                return sort_key(a) < sort_key(b);
              }))
        best = i;
    }
    selected.push_back(pool[best]);
    pool.erase(pool.begin() + std::ptrdiff_t(best));
  }
  FEDMS_ASSERT(!selected.empty());
  // Aggregation phase: coordinate-wise trimmed mean over the selection,
  // trimming f per side (requires select_count > 2f, i.e. n > 4f ✓).
  return trimmed_mean(selected, f);
}

ModelVector geometric_median(const std::vector<ModelVector>& models,
                             std::size_t max_iterations, double tolerance) {
  check_models(models);
  const std::size_t n = models.size();
  const std::size_t d = models.front().size();
  constexpr double kSmoothing = 1e-8;  // Weiszfeld smoothing term

  // Models containing any non-finite coordinate cannot contribute to a
  // finite median; Weiszfeld runs over the finite subset (a geometric
  // median tolerates a minority of outliers by design — a non-finite value
  // is just the limit case). All-poisoned input degenerates to zeros.
  std::vector<const ModelVector*> finite_models;
  finite_models.reserve(n);
  for (const auto& m : models) {
    bool finite = true;
    for (const float v : m) finite &= bool(std::isfinite(v));
    if (finite) finite_models.push_back(&m);
  }
  if (finite_models.empty()) return ModelVector(d, 0.0f);

  // Start from the coordinate mean of the finite subset.
  std::vector<double> estimate(d, 0.0);
  for (const auto* m : finite_models)
    for (std::size_t j = 0; j < d; ++j) estimate[j] += (*m)[j];
  for (auto& v : estimate) v /= double(finite_models.size());

  std::vector<double> next(d);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double weight_sum = 0.0;
    for (const auto* m : finite_models) {
      double dist_sq = kSmoothing;
      for (std::size_t j = 0; j < d; ++j) {
        const double delta = estimate[j] - (*m)[j];
        dist_sq += delta * delta;
      }
      const double w = 1.0 / std::sqrt(dist_sq);
      weight_sum += w;
      for (std::size_t j = 0; j < d; ++j) next[j] += w * (*m)[j];
    }
    double shift_sq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      next[j] /= weight_sum;
      const double delta = next[j] - estimate[j];
      shift_sq += delta * delta;
    }
    estimate.swap(next);
    if (shift_sq < tolerance * tolerance) break;
  }

  ModelVector out(d);
  for (std::size_t j = 0; j < d; ++j) out[j] = static_cast<float>(estimate[j]);
  return out;
}

ModelVector MeanAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return mean_aggregate(models);
}

TrimmedMeanAggregator::TrimmedMeanAggregator(double beta) : beta_(beta) {
  FEDMS_EXPECTS(beta >= 0.0 && beta < 0.5);
}

ModelVector TrimmedMeanAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return trimmed_mean(models, beta_);
}

std::string TrimmedMeanAggregator::name() const {
  return "trmean:" + std::to_string(beta_);
}

ModelVector MedianAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return coordinate_median(models);
}

KrumAggregator::KrumAggregator(std::size_t byzantine_count)
    : byzantine_count_(byzantine_count) {}

ModelVector KrumAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return krum(models, byzantine_count_);
}

ModelVector GeometricMedianAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return geometric_median(models);
}

MultiKrumAggregator::MultiKrumAggregator(std::size_t byzantine_count,
                                         std::size_t select)
    : byzantine_count_(byzantine_count), select_(select) {
  FEDMS_EXPECTS(select > 0);
}

ModelVector MultiKrumAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return multi_krum(models, byzantine_count_,
                    std::min(select_, models.size()));
}

BulyanAggregator::BulyanAggregator(std::size_t byzantine_count)
    : byzantine_count_(byzantine_count) {}

ModelVector BulyanAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return bulyan(models, byzantine_count_);
}

namespace {

// Squared L2 distance of every model to the coordinate median, in double;
// a model with any non-finite coordinate (or an overflowing sum) scores
// +∞. The shared disagreement metric behind the adaptive estimator and
// FedGreed's dataset-free proxy score. Caller pins the rounding mode.
std::vector<double> median_distance_scores(
    const std::vector<ModelVector>& models) {
  const ModelVector center = coordinate_median(models);
  const std::size_t d = center.size();
  std::vector<double> scores(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double delta = double(models[i][j]) - double(center[j]);
      acc += delta * delta;
    }
    scores[i] =
        std::isfinite(acc) ? acc : std::numeric_limits<double>::infinity();
  }
  return scores;
}

}  // namespace

AdaptiveTrimAggregator::AdaptiveTrimAggregator(std::size_t initial_estimate)
    : initial_estimate_(initial_estimate) {}

std::size_t AdaptiveTrimAggregator::estimate_trim(
    const std::vector<ModelVector>& models) const {
  check_models(models);
  const std::size_t p = models.size();
  // The trimmed mean needs a survivor: B̂ can never exceed ⌊(P−1)/2⌋ —
  // the over-estimation side of the Chen/Zhang/Huang trade-off is capped
  // by feasibility, not by knowledge of B.
  const std::size_t cap = (p - 1) / 2;
  if (cap == 0) return 0;

  // Pinned to nearest for the same reason as beta_trim_count: the outlier
  // threshold comparison is a robustness-count derivation and must not
  // move with the ambient fenv.
  const core::ScopedRoundingMode nearest(FE_TONEAREST);
  const std::vector<double> scores = median_distance_scores(models);
  std::vector<double> sorted = scores;
  const std::size_t mid = (p - 1) / 2;  // lower median, honest-anchored
  std::nth_element(sorted.begin(), sorted.begin() + std::ptrdiff_t(mid),
                   sorted.end());
  const double median_score = sorted[mid];
  const double threshold =
      std::isfinite(median_score)
          ? 4.0 * median_score + 1e-9
          : std::numeric_limits<double>::infinity();
  std::size_t outliers = 0;
  for (const double score : scores)
    if (!std::isfinite(score) || score > threshold) ++outliers;
  return std::min(std::max(outliers, initial_estimate_), cap);
}

ModelVector AdaptiveTrimAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  return trimmed_mean(models, estimate_trim(models));
}

std::string AdaptiveTrimAggregator::name() const {
  return "adaptive:" + std::to_string(initial_estimate_);
}

FedGreedAggregator::FedGreedAggregator(std::size_t select)
    : select_(select) {
  FEDMS_EXPECTS(select > 0);
}

ModelVector FedGreedAggregator::aggregate(
    const std::vector<ModelVector>& models) const {
  check_models(models);
  const std::size_t n = models.size();
  std::vector<double> scores(n);
  {
    // The selected SET must be identical under every fenv mode (it decides
    // which bits reach the mean), so scoring — including the root-batch
    // forward pass — runs pinned to nearest.
    const core::ScopedRoundingMode nearest(FE_TONEAREST);
    if (root_score_) {
      for (std::size_t i = 0; i < n; ++i) {
        const double score = root_score_(models[i]);
        scores[i] = std::isfinite(score)
                        ? score
                        : std::numeric_limits<double>::infinity();
      }
    } else {
      scores = median_distance_scores(models);
    }
  }
  const std::size_t keep = std::min(select_, n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Ties (identical candidates, equal losses) break by candidate index so
  // the selection is a pure function of the scores.
  std::partial_sort(order.begin(), order.begin() + std::ptrdiff_t(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b])
                        return scores[a] < scores[b];
                      return a < b;
                    });
  std::vector<ModelVector> selected;
  selected.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i)
    selected.push_back(models[order[i]]);
  return mean_aggregate(selected);
}

std::string FedGreedAggregator::name() const {
  return "fedgreed:" + std::to_string(select_);
}

bool install_fedgreed_root_score(Aggregator& filter,
                                 FedGreedAggregator::RootScoreFn score) {
  auto* fedgreed = dynamic_cast<FedGreedAggregator*>(&filter);
  if (fedgreed == nullptr) return false;
  fedgreed->set_root_score(std::move(score));
  return true;
}

ModelVector aggregate_or_mean(const Aggregator& rule,
                              const std::vector<ModelVector>& models) {
  FEDMS_EXPECTS(!models.empty());
  if (models.size() < rule.min_models()) return mean_aggregate(models);
  return rule.aggregate(models);
}

ModelVector apply_client_filter(const Aggregator& rule,
                                const std::vector<ModelVector>& models,
                                std::size_t servers, std::size_t byzantine) {
  return apply_client_filter(rule, models, servers, byzantine, nullptr);
}

ModelVector apply_client_filter(const Aggregator& rule,
                                const std::vector<ModelVector>& models,
                                std::size_t servers, std::size_t byzantine,
                                std::size_t* trim_used) {
  FEDMS_EXPECTS(!models.empty());
  if (trim_used != nullptr) *trim_used = kNoTrim;
  if (const auto* adaptive =
          dynamic_cast<const AdaptiveTrimAggregator*>(&rule)) {
    // B is unknown to the adaptive rule by construction: the configured
    // (servers, byzantine) pair is deliberately ignored and the per-call
    // estimate over the candidates that actually arrived is the trim.
    const std::size_t trim = adaptive->estimate_trim(models);
    if (trim_used != nullptr) *trim_used = trim;
    return trimmed_mean(models, trim);
  }
  if (const auto* trmean =
          dynamic_cast<const TrimmedMeanAggregator*>(&rule)) {
    const std::size_t target =
        client_trim_target(trmean->beta(), servers, byzantine);
    const std::size_t trim = degraded_trim_count(target, models.size());
    if (trim_used != nullptr) *trim_used = trim;
    return trimmed_mean(models, trim);
  }
  return aggregate_or_mean(rule, models);
}

namespace {

// Full-consumption numeric parses: std::stod/stoul accept trailing junk
// ("0.2x" -> 0.2), which would let a typo silently change the rule.
bool parse_full_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_full_count(const std::string& text, std::size_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

std::string check_aggregator_spec(const std::string& spec) {
  static const char* kKnown =
      "expected mean | trmean:<beta> | median | krum:<f> | "
      "multikrum:<f>:<m> | bulyan:<f> | geomedian | adaptive[:<init>] | "
      "fedgreed:<k>";
  if (spec == "mean" || spec == "median" || spec == "geomedian" ||
      spec == "adaptive")
    return "";
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (head == "trmean") {
    double beta = 0.0;
    if (!parse_full_double(arg, &beta))
      return "trmean needs a numeric beta, got \"" + spec + "\" (" +
             kKnown + ")";
    if (!(beta >= 0.0 && beta < 0.5))
      return "trmean beta must be in [0, 0.5), got " + arg +
             " (more than half the values cannot be trimmed per side)";
    return "";
  }
  if (head == "krum" || head == "bulyan") {
    std::size_t f = 0;
    if (!parse_full_count(arg, &f))
      return head + " needs an integer Byzantine count, got \"" + spec +
             "\" (" + kKnown + ")";
    return "";
  }
  if (head == "multikrum") {
    const auto second = arg.find(':');
    std::size_t f = 0, m = 0;
    if (second == std::string::npos ||
        !parse_full_count(arg.substr(0, second), &f) ||
        !parse_full_count(arg.substr(second + 1), &m) || m == 0)
      return "multikrum needs \"multikrum:<f>:<m>\" with integer f and "
             "m >= 1, got \"" + spec + "\"";
    return "";
  }
  if (head == "adaptive") {
    std::size_t init = 0;
    if (!parse_full_count(arg, &init))
      return "adaptive needs an integer initial estimate, got \"" + spec +
             "\" (" + kKnown + ")";
    return "";
  }
  if (head == "fedgreed") {
    std::size_t k = 0;
    if (!parse_full_count(arg, &k) || k == 0)
      return "fedgreed needs an integer server count k >= 1, got \"" +
             spec + "\" (" + kKnown + ")";
    return "";
  }
  return "unknown aggregator \"" + spec + "\" (" + kKnown + ")";
}

std::optional<double> trmean_beta(const std::string& spec) {
  if (spec.rfind("trmean:", 0) != 0) return std::nullopt;
  double beta = 0.0;
  if (!parse_full_double(spec.substr(7), &beta)) return std::nullopt;
  return beta;
}

std::size_t first_nonfinite_coordinate(const ModelVector& model) {
  for (std::size_t j = 0; j < model.size(); ++j)
    if (!std::isfinite(model[j])) return j;
  return model.size();
}

bool within_coordinate_envelope(const ModelVector& model,
                                const std::vector<ModelVector>& reference,
                                double tolerance,
                                std::size_t* bad_coordinate) {
  FEDMS_EXPECTS(!reference.empty());
  for (const ModelVector& r : reference)
    FEDMS_EXPECTS(r.size() == model.size());
  for (std::size_t j = 0; j < model.size(); ++j) {
    const double value = model[j];
    if (!std::isfinite(value)) {
      if (bad_coordinate != nullptr) *bad_coordinate = j;
      return false;
    }
    double lo = reference[0][j], hi = reference[0][j];
    for (const ModelVector& r : reference) {
      lo = std::min(lo, double(r[j]));
      hi = std::max(hi, double(r[j]));
    }
    const double scale =
        std::max(1.0, std::max(std::fabs(lo), std::fabs(hi)));
    if (value < lo - tolerance * scale || value > hi + tolerance * scale) {
      if (bad_coordinate != nullptr) *bad_coordinate = j;
      return false;
    }
  }
  return true;
}

AggregatorPtr make_aggregator(const std::string& spec) {
  if (spec == "mean") return std::make_unique<MeanAggregator>();
  if (spec == "median") return std::make_unique<MedianAggregator>();
  if (spec == "geomedian")
    return std::make_unique<GeometricMedianAggregator>();
  if (spec == "adaptive") return std::make_unique<AdaptiveTrimAggregator>();
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (head == "trmean") {
    FEDMS_EXPECTS(!arg.empty());
    return std::make_unique<TrimmedMeanAggregator>(std::stod(arg));
  }
  if (head == "krum") {
    FEDMS_EXPECTS(!arg.empty());
    return std::make_unique<KrumAggregator>(std::stoul(arg));
  }
  if (head == "bulyan") {
    FEDMS_EXPECTS(!arg.empty());
    return std::make_unique<BulyanAggregator>(std::stoul(arg));
  }
  if (head == "multikrum") {
    const auto second_colon = arg.find(':');
    FEDMS_EXPECTS(second_colon != std::string::npos);
    return std::make_unique<MultiKrumAggregator>(
        std::stoul(arg.substr(0, second_colon)),
        std::stoul(arg.substr(second_colon + 1)));
  }
  if (head == "adaptive") {
    FEDMS_EXPECTS(!arg.empty());
    return std::make_unique<AdaptiveTrimAggregator>(std::stoul(arg));
  }
  if (head == "fedgreed") {
    FEDMS_EXPECTS(!arg.empty());
    return std::make_unique<FedGreedAggregator>(std::stoul(arg));
  }
  FEDMS_EXPECTS(!"unknown aggregator spec");
  return nullptr;
}

std::vector<std::string> default_defense_zoo(std::size_t servers,
                                             std::size_t byzantine) {
  FEDMS_EXPECTS(servers >= 1 && 2 * byzantine <= servers);
  // β = B/P is an FP division whose last bit moves with the ambient
  // rounding mode; render the spec text under a pinned mode so the zoo is
  // byte-identical for any caller fenv (mode-proof text, as everywhere).
  char beta[32];
  {
    const core::ScopedRoundingMode nearest(FE_TONEAREST);
    std::snprintf(beta, sizeof beta, "%.6g",
                  double(byzantine) / double(servers));
  }
  const std::size_t keep =
      servers > 2 * byzantine ? servers - 2 * byzantine : 1;
  std::vector<std::string> zoo;
  zoo.push_back("mean");
  zoo.push_back(std::string("trmean:") + beta);
  zoo.push_back("median");
  zoo.push_back("krum:" + std::to_string(byzantine));
  zoo.push_back("multikrum:" + std::to_string(byzantine) + ":" +
                std::to_string(keep));
  if (servers >= 4 * byzantine + 3)
    zoo.push_back("bulyan:" + std::to_string(byzantine));
  zoo.push_back("geomedian");
  zoo.push_back("adaptive");
  zoo.push_back("fedgreed:" + std::to_string(keep));
  return zoo;
}

}  // namespace fedms::fl
