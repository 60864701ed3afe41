// Sharded trimmed-mean / mean filters: coordinate-range sharding across a
// core::ThreadPool must be bit-for-bit identical to the serial kernels —
// including NaN/Inf coordinates (which leave the lane kernel for the
// kept-window selection path) and every blocking-boundary dimension. This file is also the TSan target for the
// event-loop runtime's aggregation parallelism (scripts/check.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "fl/aggregators.h"

namespace fedms::fl {
namespace {

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

// Plants non-finite values in a few columns so those coordinates exercise
// the selection (nth_element) path instead of the lane kernel.
void plant_nonfinite(std::vector<ModelVector>& models) {
  if (models.empty() || models[0].empty()) return;
  const std::size_t dim = models[0].size();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  models[0][0] = nan;
  models[models.size() / 2][dim / 2] = inf;
  models.back()[dim - 1] = -inf;
  if (dim > 65) models[0][65] = nan;  // just past a block boundary
}

void expect_bitwise_equal(const ModelVector& a, const ModelVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    // Bit-level comparison: NaN == NaN must hold, -0.0 != 0.0 must fail.
    std::uint32_t bits_a, bits_b;
    static_assert(sizeof(float) == sizeof(std::uint32_t));
    std::memcpy(&bits_a, &a[j], sizeof bits_a);
    std::memcpy(&bits_b, &b[j], sizeof bits_b);
    ASSERT_EQ(bits_a, bits_b) << "coordinate " << j;
  }
}

// Dimensions straddling the kBlock = 64 sharding granularity, plus
// degenerate and large cases.
const std::size_t kDims[] = {1, 63, 64, 65, 128, 1000};

TEST(ShardedFilter, TrimmedMeanMatchesSerialBitForBit) {
  for (const std::size_t workers : {1u, 2u, 5u}) {
    core::ThreadPool pool(workers);
    for (const std::size_t dim : kDims) {
      for (const std::size_t trim : {std::size_t(0), std::size_t(2),
                                     std::size_t(7)}) {
        auto models = random_models(20, dim, 17 * dim + trim);
        plant_nonfinite(models);
        const ModelVector serial = trimmed_mean(models, trim);
        const ModelVector sharded = trimmed_mean(models, trim, pool);
        expect_bitwise_equal(serial, sharded);
      }
    }
  }
}

TEST(ShardedFilter, LargeTrimSelectionPathMatchesSerial) {
  core::ThreadPool pool(3);
  // trim = 40 of 100 models exceeds the lane kernel's kMaxFastTrim = 16:
  // every coordinate takes the two-sided nth_element route.
  auto models = random_models(100, 257, 99);
  plant_nonfinite(models);
  const ModelVector serial = trimmed_mean(models, std::size_t(40));
  const ModelVector sharded = trimmed_mean(models, std::size_t(40), pool);
  expect_bitwise_equal(serial, sharded);
}

TEST(ShardedFilter, MeanMatchesSerialBitForBit) {
  core::ThreadPool pool(4);
  for (const std::size_t dim : kDims) {
    auto models = random_models(12, dim, dim);
    plant_nonfinite(models);
    const ModelVector serial = mean_aggregate(models);
    const ModelVector sharded = mean_aggregate(models, pool);
    expect_bitwise_equal(serial, sharded);
  }
}

TEST(ShardedFilter, InlinePoolMatchesSerial) {
  core::ThreadPool inline_pool(0);  // worker_count 0 executes inline
  const auto models = random_models(9, 130, 5);
  expect_bitwise_equal(trimmed_mean(models, std::size_t(3)),
                       trimmed_mean(models, std::size_t(3), inline_pool));
}

TEST(ShardedFilter, GlobalPoolRoutesTheSerialEntryPoints) {
  auto models = random_models(15, 320, 31);
  plant_nonfinite(models);
  const ModelVector serial_trmean = trimmed_mean(models, std::size_t(4));
  const ModelVector serial_mean = mean_aggregate(models);

  {
    core::ThreadPool pool(3);
    set_aggregation_pool(&pool);
    EXPECT_EQ(aggregation_pool(), &pool);
    expect_bitwise_equal(serial_trmean,
                         trimmed_mean(models, std::size_t(4)));
    expect_bitwise_equal(serial_mean, mean_aggregate(models));
    set_aggregation_pool(nullptr);
  }
  EXPECT_EQ(aggregation_pool(), nullptr);
}

TEST(ShardedFilter, AgreesWithReferenceOracle) {
  // End-to-end anchor: sharded execution still equals the seed's
  // full-sort oracle (double accumulation absorbs kept-window order).
  core::ThreadPool pool(4);
  const auto models = random_models(30, 513, 77);
  const ModelVector reference =
      trimmed_mean_reference(models, std::size_t(6));
  const ModelVector sharded = trimmed_mean(models, std::size_t(6), pool);
  expect_bitwise_equal(reference, sharded);
}

}  // namespace
}  // namespace fedms::fl
