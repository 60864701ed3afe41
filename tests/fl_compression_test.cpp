#include "fl/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/rng.h"
#include "fl/experiment.h"

namespace fedms::fl {
namespace {

std::vector<float> random_values(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
  core::Rng rng(seed);
  std::vector<float> values(n);
  for (auto& v : values) v = scale * float(rng.normal());
  return values;
}

TEST(Half, KnownConversions) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half(1.0f), 0x3c00);
  EXPECT_EQ(float_to_half(-2.0f), 0xc000);
  EXPECT_EQ(float_to_half(0.5f), 0x3800);
  EXPECT_EQ(float_to_half(65504.0f), 0x7bff);  // max finite half
  EXPECT_FLOAT_EQ(half_to_float(0x3c00), 1.0f);
  EXPECT_FLOAT_EQ(half_to_float(0xc000), -2.0f);
  EXPECT_FLOAT_EQ(half_to_float(0x7bff), 65504.0f);
}

TEST(Half, OverflowSaturatesToInf) {
  EXPECT_EQ(float_to_half(1e6f), 0x7c00);
  EXPECT_EQ(float_to_half(-1e6f), 0xfc00);
  EXPECT_TRUE(std::isinf(half_to_float(0x7c00)));
}

TEST(Half, NanRoundTrips) {
  const std::uint16_t h =
      float_to_half(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(half_to_float(h)));
}

TEST(Half, SubnormalsSurvive) {
  const float tiny = 1e-5f;  // subnormal in half precision
  const float back = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(back, tiny, 1e-6f);
}

TEST(Half, ExactlyRepresentableValuesRoundTrip) {
  // Halves have 11 significant bits: small integers and simple fractions
  // round-trip exactly.
  for (const float v : {0.25f, 1.5f, 3.0f, 100.0f, -0.125f, 2048.0f}) {
    EXPECT_FLOAT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Half, RelativeErrorBounded) {
  const auto values = random_values(5000, 1);
  for (const float v : values) {
    const float back = half_to_float(float_to_half(v));
    // binary16 has a 2^-11 relative epsilon for normal values.
    EXPECT_NEAR(back, v, std::abs(v) * 1.0f / 1024.0f + 1e-7f);
  }
}

TEST(IdentityCodec, LosslessRoundTrip) {
  IdentityCodec codec;
  const auto values = random_values(1000, 2);
  EXPECT_EQ(codec.roundtrip(values), values);
  EXPECT_EQ(codec.encode(values).size(), 4u + 4u * values.size());
}

TEST(Fp16Codec, HalvesTheBytes) {
  Fp16Codec codec;
  const auto values = random_values(1000, 3);
  EXPECT_EQ(codec.encode(values).size(), 4u + 2u * values.size());
}

TEST(Fp16Codec, RoundTripErrorBounded) {
  Fp16Codec codec;
  const auto values = random_values(2000, 4);
  const auto back = codec.roundtrip(values);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(back[i], values[i], std::abs(values[i]) / 1024.0f + 1e-7f);
}

TEST(Int8Codec, QuartersTheBytes) {
  Int8Codec codec(256);
  const auto values = random_values(1024, 5);
  // 8-byte header + 4 blocks * (4-byte scale + 256 bytes).
  EXPECT_EQ(codec.encode(values).size(), 8u + 4u * (4u + 256u));
}

TEST(Int8Codec, ErrorBoundedByHalfStep) {
  Int8Codec codec(128);
  const auto values = random_values(1000, 6, 2.0f);
  const auto back = codec.roundtrip(values);
  // Per block, |error| <= scale/2 where scale = max_abs/127.
  for (std::size_t begin = 0; begin < values.size(); begin += 128) {
    const std::size_t end = std::min<std::size_t>(begin + 128, values.size());
    float max_abs = 0.0f;
    for (std::size_t i = begin; i < end; ++i)
      max_abs = std::max(max_abs, std::abs(values[i]));
    const float half_step = max_abs / 127.0f / 2.0f + 1e-6f;
    for (std::size_t i = begin; i < end; ++i)
      EXPECT_NEAR(back[i], values[i], half_step);
  }
}

TEST(Int8Codec, ZeroBlockRoundTripsToZero) {
  Int8Codec codec(16);
  const std::vector<float> zeros(40, 0.0f);
  EXPECT_EQ(codec.roundtrip(zeros), zeros);
}

TEST(Int8Codec, PartialFinalBlockHandled) {
  Int8Codec codec(16);
  const auto values = random_values(21, 7);  // 16 + 5
  const auto back = codec.roundtrip(values);
  EXPECT_EQ(back.size(), 21u);
}

std::vector<PayloadCodecPtr> all_codecs() {
  std::vector<PayloadCodecPtr> codecs;
  codecs.push_back(std::make_unique<IdentityCodec>());
  codecs.push_back(std::make_unique<Fp16Codec>());
  codecs.push_back(std::make_unique<Int8Codec>());
  return codecs;
}

TEST(Codecs, EmptyPayloadRoundTrips) {
  for (const auto& codec : all_codecs())
    EXPECT_TRUE(codec->roundtrip({}).empty()) << codec->name();
}

TEST(Codecs, MalformedBuffersThrow) {
  for (const auto& codec : all_codecs()) {
    auto bytes = codec->encode(random_values(64, 8));
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW((void)codec->decode(bytes), std::runtime_error)
        << codec->name();
  }
}

// Integration: wire encodings cut model bytes without destroying accuracy
// (fp16's 2^-11 relative error is negligible for SGD).
TEST(CompressionIntegration, Fp16HalvesUplinkKeepsAccuracy) {
  WorkloadConfig workload;
  workload.samples = 800;
  workload.feature_dimension = 16;
  workload.classes = 4;
  workload.class_separation = 4.0f;
  workload.mlp_hidden = {12};
  workload.eval_sample_cap = 200;
  FedMsConfig fed;
  fed.clients = 12;
  fed.servers = 4;
  fed.byzantine = 1;
  fed.attack = "random";
  fed.client_filter = "trmean:0.25";
  fed.rounds = 10;
  fed.eval_every = 10;
  fed.seed = 17;

  const RunResult raw = run_experiment(workload, fed);
  fed.wire_encoding = "fp16";
  const RunResult fp16 = run_experiment(workload, fed);

  EXPECT_LT(double(fp16.uplink_total.bytes),
            0.6 * double(raw.uplink_total.bytes));
  EXPECT_NEAR(*fp16.final_eval().eval_accuracy,
              *raw.final_eval().eval_accuracy, 0.1);
}

TEST(CompressionIntegration, Int8StillLearns) {
  WorkloadConfig workload;
  workload.samples = 600;
  workload.feature_dimension = 16;
  workload.classes = 4;
  workload.class_separation = 4.0f;
  workload.mlp_hidden = {12};
  workload.eval_sample_cap = 150;
  FedMsConfig fed;
  fed.clients = 10;
  fed.servers = 4;
  fed.byzantine = 0;
  fed.attack = "benign";
  fed.rounds = 12;
  fed.eval_every = 12;
  fed.seed = 19;
  fed.wire_encoding = "int8";
  const RunResult result = run_experiment(workload, fed);
  EXPECT_GT(*result.final_eval().eval_accuracy, 0.6);
}

TEST(ConfigDeath, RejectsUnknownCompression) {
  FedMsConfig fed;
  fed.wire_encoding = "gzip";
  EXPECT_DEATH(fed.validate(), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
