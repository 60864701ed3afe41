// The determinism contract, tested as a contract (ARCHITECTURE.md
// "Determinism contract"): the trimmed-mean lane kernel and its full-sort
// oracle agree BITWISE for every input — proven exhaustively for small
// columns over all sign/zero/±∞/NaN/duplicate patterns — and stay bitwise
// stable across fenv rounding modes, thread counts, shard widths, and
// pools whose workers were created before a mode switch (the [cfenv]
// inheritance hazard). The batch-parallel conv forward carries the same
// guarantee.
#include <cfenv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/rounding.h"
#include "core/thread_pool.h"
#include "fl/aggregators.h"
#include "tensor/conv.h"
#include "tensor/conv_im2col.h"
#include "tensor/tensor.h"

namespace fedms::fl {
namespace {

void expect_bitwise_equal(const ModelVector& a, const ModelVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) return;
  for (std::size_t j = 0; j < a.size(); ++j) {
    std::uint32_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[j], sizeof bits_a);
    std::memcpy(&bits_b, &b[j], sizeof bits_b);
    ASSERT_EQ(bits_a, bits_b)
        << what << " first divergence at coordinate " << j << " ("
        << a[j] << " vs " << b[j] << ")";
  }
}

std::vector<ModelVector> random_models(std::size_t count, std::size_t dim,
                                       std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<ModelVector> models(count);
  for (auto& model : models) {
    model.resize(dim);
    for (float& v : model) v = float(rng.normal(0.0, 3.0));
  }
  return models;
}

// The exhaustive small-P enumeration (ESBMC-style state-space sweep, run
// concretely): an 8-letter alphabet covering both infinities, NaN, both
// zeros, duplicates-by-construction, and mixed signs. For P models of
// dimension 8^P, coordinate c of model i is alphabet[(c / 8^i) % 8], so
// the columns enumerate EVERY possible P-tuple over the alphabet exactly
// once — all tie patterns, all nonfinite placements, both trim sides.
std::vector<ModelVector> enumeration_models(std::size_t p) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float alphabet[8] = {-inf, -2.5f, -1.0f, -0.0f,
                             0.0f, 1.5f,  inf,   nan};
  std::size_t dim = 1;
  for (std::size_t i = 0; i < p; ++i) dim *= 8;
  std::vector<ModelVector> models(p, ModelVector(dim));
  std::size_t stride = 1;
  for (std::size_t i = 0; i < p; ++i, stride *= 8)
    for (std::size_t c = 0; c < dim; ++c)
      models[i][c] = alphabet[(c / stride) % 8];
  return models;
}

// The enumeration's ±∞/NaN columns drive trimmed_mean's case-3 selection
// path and its finite columns the lane kernel, so kernel == reference here
// covers both halves of the production filter.
TEST(DeterminismContract, ExhaustiveSmallColumnsAgreeBitwiseUnderAllModes) {
  for (std::size_t p = 1; p <= 6; ++p) {
    const std::vector<ModelVector> models = enumeration_models(p);
    for (std::size_t trim = 0; 2 * trim < p; ++trim) {
      for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
        const int fenv_mode = core::all_rounding_modes()[m];
        const core::ScopedRoundingMode mode(fenv_mode);
        const std::string what =
            "P=" + std::to_string(p) + " trim=" + std::to_string(trim) +
            " mode=" + core::rounding_mode_name(fenv_mode);
        expect_bitwise_equal(trimmed_mean(models, trim),
                             trimmed_mean_reference(models, trim),
                             what + " kernel vs reference");
      }
    }
  }
}

// Kernel-vs-reference agreement on random data wide enough to cross kBlock
// boundaries, with planted nonfinite columns, at trims on both sides of
// the lane kernel's kMaxFastTrim = 16 threshold. Dimension 1003 is not a
// multiple of the 4-coordinate lane group: its padded final group carries
// a NaN. Its magnitudes also spread over 2^±60, so the double sums round
// and any reordering of a total or a tail sum changes the bits.
TEST(DeterminismContract, ImplementationsAgreeOnRandomBlocksUnderAllModes) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t dim : {std::size_t(1000), std::size_t(1003)}) {
    auto models = random_models(40, dim, 0x9a7e + dim);
    if (dim % 4 != 0) {
      core::Rng rng(dim);
      for (auto& model : models)
        for (float& v : model)
          v = std::ldexp(v, int(rng.uniform_index(121)) - 60);
    }
    models[3][63] = std::numeric_limits<float>::quiet_NaN();
    models[7][64] = inf;
    models[11][999] = -inf;
    models[5][dim - 2] = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t trim :
         {std::size_t(0), std::size_t(1), std::size_t(7), std::size_t(16),
          std::size_t(17), std::size_t(19)}) {
      for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
        const int fenv_mode = core::all_rounding_modes()[m];
        const core::ScopedRoundingMode mode(fenv_mode);
        const std::string what = "dim=" + std::to_string(dim) +
                                 " trim=" + std::to_string(trim) + " mode=" +
                                 core::rounding_mode_name(fenv_mode);
        expect_bitwise_equal(trimmed_mean(models, trim),
                             trimmed_mean_reference(models, trim),
                             what + " kernel vs reference");
      }
    }
  }
}

// The [cfenv] inheritance regression: pool workers capture the fenv of the
// thread that BUILT the pool. Building the pools under nearest and then
// aggregating under each directed mode, sharded output must still match
// the serial kernel bitwise — it only does because every shard
// re-establishes the caller's mode (sharded_by_coordinate).
TEST(DeterminismContract, ShardedFilterMatchesSerialUnderStalePoolFenv) {
  core::ThreadPool pool2(2);  // built under the ambient (nearest) mode
  core::ThreadPool pool5(5);
  auto models = random_models(20, 257, 0xf17e);
  models[0][0] = std::numeric_limits<float>::quiet_NaN();
  models[9][128] = std::numeric_limits<float>::infinity();
  for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
    const int fenv_mode = core::all_rounding_modes()[m];
    const core::ScopedRoundingMode mode(fenv_mode);
    const std::string what =
        std::string("mode=") + core::rounding_mode_name(fenv_mode);
    for (const std::size_t trim : {std::size_t(0), std::size_t(3)}) {
      const ModelVector serial = trimmed_mean(models, trim);
      expect_bitwise_equal(serial, trimmed_mean(models, trim, pool2),
                           what + " trimmed 2 workers");
      expect_bitwise_equal(serial, trimmed_mean(models, trim, pool5),
                           what + " trimmed 5 workers");
    }
    const ModelVector serial_mean = mean_aggregate(models);
    expect_bitwise_equal(serial_mean, mean_aggregate(models, pool2),
                         what + " mean 2 workers");
    expect_bitwise_equal(serial_mean, mean_aggregate(models, pool5),
                         what + " mean 5 workers");
  }
}

// Theorem-1 envelope under every mode: with the trim covering the planted
// outliers, the filtered model stays inside the coordinate-wise honest
// envelope (1e-4 tolerance — directed modes may overshoot by ulps, never
// more) and finite, whatever the FPU rounding direction.
TEST(DeterminismContract, FilterEnvelopeHoldsUnderAllModes) {
  const std::size_t honest_count = 7, byzantine = 3, dim = 300;
  std::vector<ModelVector> honest = random_models(honest_count, dim, 0xe17);
  std::vector<ModelVector> models = honest;
  const float inf = std::numeric_limits<float>::infinity();
  models.emplace_back(dim, 1e30f);
  models.emplace_back(dim, -inf);
  models.emplace_back(dim, std::numeric_limits<float>::quiet_NaN());
  for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
    const int fenv_mode = core::all_rounding_modes()[m];
    const core::ScopedRoundingMode mode(fenv_mode);
    const ModelVector filtered = trimmed_mean(models, byzantine);
    EXPECT_EQ(first_nonfinite_coordinate(filtered), filtered.size())
        << "mode=" << core::rounding_mode_name(fenv_mode);
    std::size_t coordinate = 0;
    EXPECT_TRUE(
        within_coordinate_envelope(filtered, honest, 1e-4, &coordinate))
        << "mode=" << core::rounding_mode_name(fenv_mode) << " coordinate "
        << coordinate;
  }
}

}  // namespace
}  // namespace fedms::fl

namespace fedms::tensor {
namespace {

// Restores the serial conv path even when an assertion unwinds the test.
struct ConvPoolGuard {
  explicit ConvPoolGuard(core::ThreadPool* pool) {
    set_conv_batch_parallelism(pool);
  }
  ~ConvPoolGuard() { set_conv_batch_parallelism(nullptr); }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  if (std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0)
    return;
  for (std::size_t j = 0; j < a.numel(); ++j) {
    std::uint32_t bits_a, bits_b;
    std::memcpy(&bits_a, &a.data()[j], sizeof bits_a);
    std::memcpy(&bits_b, &b.data()[j], sizeof bits_b);
    ASSERT_EQ(bits_a, bits_b)
        << what << " first divergence at flat index " << j;
  }
}

// The batch-parallel conv forward must be bit-identical to the serial path
// for any pool size — including pools built BEFORE a rounding-mode switch,
// whose workers inherited a stale fenv ([cfenv]): each chunk re-establishes
// the caller's mode, so the GEMM reductions round identically everywhere.
TEST(DeterminismContract, ConvBatchForwardBitIdenticalAcrossPoolsAndModes) {
  core::Rng rng(0xc0de);
  const Tensor input = Tensor::randn({9, 3, 11, 11}, rng);
  const Tensor weight = Tensor::randn({4, 3, 3, 3}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  Conv2dSpec spec;
  spec.stride = 1;
  spec.padding = 1;

  // Pools constructed now capture the ambient (nearest) fenv.
  core::ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  core::ThreadPool* pools[] = {&pool1, &pool2, &pool4, &pool8};

  for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
    const int fenv_mode = core::all_rounding_modes()[m];
    const core::ScopedRoundingMode mode(fenv_mode);
    const Tensor serial = conv2d_forward_im2col(input, weight, bias, spec);
    for (core::ThreadPool* pool : pools) {
      const ConvPoolGuard guard(pool);
      const Tensor parallel =
          conv2d_forward_im2col(input, weight, bias, spec);
      expect_bitwise_equal(
          serial, parallel,
          std::string("mode=") + core::rounding_mode_name(fenv_mode) +
              " workers=" + std::to_string(pool->worker_count()));
    }
  }
}

}  // namespace
}  // namespace fedms::tensor
