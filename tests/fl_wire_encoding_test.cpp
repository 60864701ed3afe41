#include "fl/wire_encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/rng.h"
#include "core/rounding.h"
#include "fl/experiment.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace fedms::fl {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

WireEncodingSpec spec_of(const std::string& text) {
  WireEncodingSpec spec;
  const std::string error = parse_wire_encoding(text, &spec);
  EXPECT_EQ(error, "") << text;
  return spec;
}

std::vector<float> random_values(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
  core::Rng rng(seed);
  std::vector<float> values(n);
  for (auto& v : values) v = scale * float(rng.normal());
  return values;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---- spec grammar ----

TEST(WireEncodingSpec, ParseToStringRoundTrips) {
  for (const char* text : {"f32", "fp16", "int8", "delta+f32", "delta+fp16",
                           "delta+int8", "topk:0.25", "topk:1"}) {
    WireEncodingSpec spec;
    ASSERT_EQ(parse_wire_encoding(text, &spec), "") << text;
    WireEncodingSpec again;
    EXPECT_EQ(parse_wire_encoding(spec.to_string(), &again), "") << text;
    EXPECT_EQ(again.base, spec.base) << text;
    EXPECT_EQ(again.delta, spec.delta) << text;
    EXPECT_DOUBLE_EQ(again.topk, spec.topk) << text;
    EXPECT_EQ(again.format_tag(), spec.format_tag()) << text;
  }
  EXPECT_TRUE(spec_of("f32").is_f32());
  EXPECT_FALSE(spec_of("f32").stateful());
  EXPECT_FALSE(spec_of("fp16").stateful());
  EXPECT_TRUE(spec_of("delta+f32").stateful());
  EXPECT_TRUE(spec_of("topk:0.5").stateful());
}

TEST(WireEncodingSpec, RejectionsAreOneLine) {
  for (const char* text : {"", "f64", "FP16", "topk:0", "topk:1.5",
                           "topk:", "topk:abc", "delta+", "delta+topk:0.5",
                           "delta+delta+f32"}) {
    const std::string error = check_wire_encoding(text);
    EXPECT_NE(error, "") << text;
    EXPECT_EQ(error.find('\n'), std::string::npos) << text;
  }
}

TEST(WireEncodingSpec, FormatTagsMatchConstants) {
  EXPECT_EQ(spec_of("f32").format_tag(), kWireFormatRaw);
  EXPECT_EQ(spec_of("fp16").format_tag(), kWireFormatFp16);
  EXPECT_EQ(spec_of("int8").format_tag(), kWireFormatInt8);
  EXPECT_EQ(spec_of("topk:0.25").format_tag(), kWireFormatTopK);
  EXPECT_EQ(spec_of("delta+f32").format_tag(), kWireFormatDeltaF32);
  EXPECT_EQ(spec_of("delta+fp16").format_tag(), kWireFormatDeltaFp16);
  EXPECT_EQ(spec_of("delta+int8").format_tag(), kWireFormatDeltaInt8);
}

// ---- binary16 conversions ----

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
  const std::uint16_t h = float_to_half(kNan);
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

// ---- the three bases: sizes, round-trips, error bounds ----

// The f32 base ships as a delta keyframe (plain f32 is the frame codec's
// raw layout): stateful prefix + u32 count + count f32.
TEST(WireBases, F32LosslessRoundTrip) {
  WireChannel channel(spec_of("delta+f32"));
  const auto values = random_values(1000, 2);
  const WireEncodeResult wire = channel.encode(values);
  EXPECT_TRUE(bitwise_equal(wire.decoded, values));
  EXPECT_EQ(wire.bytes.size(), 5u + 4u + 4u * values.size());
}

TEST(WireBases, Fp16HalvesTheBytes) {
  WireChannel channel(spec_of("fp16"));
  const auto values = random_values(1000, 3);
  EXPECT_EQ(channel.encode(values).bytes.size(), 4u + 2u * values.size());
}

TEST(WireBases, Fp16RoundTripErrorBounded) {
  WireChannel channel(spec_of("fp16"));
  const auto values = random_values(2000, 4);
  const auto back = channel.encode(values).decoded;
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(back[i], values[i], std::abs(values[i]) / 1024.0f + 1e-7f);
}

TEST(WireBases, Int8QuartersTheBytes) {
  WireChannel channel(spec_of("int8"));
  const auto values = random_values(1024, 5);
  // 8-byte header + 16 blocks * (4-byte scale + 64 bytes).
  EXPECT_EQ(channel.encode(values).bytes.size(),
            8u + 16u * (4u + kWireInt8Block));
}

TEST(WireBases, Int8ErrorBoundedByHalfStep) {
  WireChannel channel(spec_of("int8"));
  const auto values = random_values(1000, 6, 2.0f);
  const auto back = channel.encode(values).decoded;
  // Per block, |error| <= scale/2 where scale = max_abs/127.
  for (std::size_t begin = 0; begin < values.size();
       begin += kWireInt8Block) {
    const std::size_t end =
        std::min<std::size_t>(begin + kWireInt8Block, values.size());
    float max_abs = 0.0f;
    for (std::size_t i = begin; i < end; ++i)
      max_abs = std::max(max_abs, std::abs(values[i]));
    const float half_step = max_abs / 127.0f / 2.0f + 1e-6f;
    for (std::size_t i = begin; i < end; ++i)
      EXPECT_NEAR(back[i], values[i], half_step);
  }
}

TEST(WireBases, Int8ZeroBlockRoundTripsToZero) {
  WireChannel channel(spec_of("int8"));
  const std::vector<float> zeros(2 * kWireInt8Block + 8, 0.0f);
  EXPECT_EQ(channel.encode(zeros).decoded, zeros);
}

TEST(WireBases, Int8PartialFinalBlockHandled) {
  WireChannel channel(spec_of("int8"));
  const auto values = random_values(kWireInt8Block + 5, 7);
  const WireEncodeResult wire = channel.encode(values);
  EXPECT_EQ(wire.decoded.size(), kWireInt8Block + 5);
  // Two scales; the second block holds 5 codes.
  EXPECT_EQ(wire.bytes.size(), 8u + 2u * 4u + kWireInt8Block + 5u);
  for (std::size_t i = kWireInt8Block; i < values.size(); ++i)
    EXPECT_NEAR(wire.decoded[i], values[i], 0.05f) << i;
}

// The three bases: stateless fp16 and int8, and f32 as delta+f32.
constexpr const char* kBaseSpecs[] = {"delta+f32", "fp16", "int8"};

TEST(Codecs, EmptyPayloadRoundTrips) {
  for (const char* text : kBaseSpecs) {
    WireChannel channel(spec_of(text));
    EXPECT_TRUE(channel.encode({}).decoded.empty()) << text;
  }
}

TEST(Codecs, MalformedBuffersThrow) {
  for (const char* text : kBaseSpecs) {
    WireChannel sender(spec_of(text));
    auto bytes = sender.encode(random_values(64, 8)).bytes;
    bytes.resize(bytes.size() / 2);
    WireChannel receiver(spec_of(text));
    EXPECT_THROW((void)receiver.decode(spec_of(text).format_tag(), bytes),
                 std::runtime_error)
        << text;
  }
}

// ---- non-finite values through the lossy bases ----

TEST(WireChannel, Int8KeepsNanAndInfVisible) {
  // A poisoned coordinate must decode as NaN — never saturate into a
  // finite value — and must not widen the finite neighbors' scale.
  std::vector<float> values(kWireInt8Block, 0.25f);
  values[3] = kNan;
  values[7] = kInf;
  values[11] = -kInf;
  WireChannel channel(spec_of("int8"));
  const WireEncodeResult wire = channel.encode(values);
  ASSERT_EQ(wire.decoded.size(), values.size());
  EXPECT_TRUE(std::isnan(wire.decoded[3]));
  EXPECT_TRUE(std::isnan(wire.decoded[7]));
  EXPECT_TRUE(std::isnan(wire.decoded[11]));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == 3 || i == 7 || i == 11) continue;
    EXPECT_NEAR(wire.decoded[i], 0.25f, 0.25 / 127.0) << i;
  }
}

TEST(WireChannel, Fp16KeepsNanAndSignedInf) {
  std::vector<float> values = {1.0f, kNan, kInf, -kInf, 1e6f};
  WireChannel channel(spec_of("fp16"));
  const WireEncodeResult wire = channel.encode(values);
  ASSERT_EQ(wire.decoded.size(), values.size());
  EXPECT_FLOAT_EQ(wire.decoded[0], 1.0f);
  EXPECT_TRUE(std::isnan(wire.decoded[1]));
  EXPECT_TRUE(std::isinf(wire.decoded[2]) && wire.decoded[2] > 0);
  EXPECT_TRUE(std::isinf(wire.decoded[3]) && wire.decoded[3] < 0);
  // Beyond the binary16 range saturates to inf, never a wrong finite.
  EXPECT_TRUE(std::isinf(wire.decoded[4]) && wire.decoded[4] > 0);
}

TEST(WireChannel, DeltaInt8NanPoisonStaysLocal) {
  WireChannel sender(spec_of("delta+int8"));
  WireChannel receiver(spec_of("delta+int8"));
  std::vector<float> values = random_values(2 * kWireInt8Block, 11);
  WireEncodeResult wire = sender.encode(values);  // keyframe
  EXPECT_TRUE(bitwise_equal(
      receiver.decode(kWireFormatDeltaInt8, wire.bytes), wire.decoded));
  values[5] = kNan;
  wire = sender.encode(values);
  const std::vector<float> decoded =
      receiver.decode(kWireFormatDeltaInt8, wire.bytes);
  ASSERT_TRUE(bitwise_equal(decoded, wire.decoded));
  EXPECT_TRUE(std::isnan(decoded[5]));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 5) {
      EXPECT_TRUE(std::isfinite(decoded[i])) << i;
    }
  }
}

// ---- zero-length and all-zero payloads ----

TEST(WireChannel, EmptyModelRoundTripsUnderEveryEncoding) {
  const std::vector<float> empty;
  for (const char* text :
       {"fp16", "int8", "topk:0.25", "delta+f32", "delta+int8"}) {
    WireChannel sender(spec_of(text));
    WireChannel receiver(spec_of(text));
    const WireEncodeResult wire = sender.encode(empty);
    EXPECT_TRUE(wire.decoded.empty()) << text;
    EXPECT_TRUE(
        receiver.decode(spec_of(text).format_tag(), wire.bytes).empty())
        << text;
  }
}

TEST(WireChannel, AllZeroChunksStayExactlyZero) {
  const std::vector<float> zeros(3 * kWireInt8Block + 5, 0.0f);
  for (const char* text : {"fp16", "int8", "topk:0.25", "delta+int8"}) {
    WireChannel channel(spec_of(text));
    const WireEncodeResult wire = channel.encode(zeros);
    ASSERT_EQ(wire.decoded.size(), zeros.size()) << text;
    for (const float v : wire.decoded) EXPECT_EQ(v, 0.0f) << text;
  }
}

// ---- top-k edges: k = 0, k = dim, and the derived count ----

TEST(WireChannelTopK, CountClampsToAtLeastOneAndAtMostDim) {
  EXPECT_EQ(WireChannel::topk_count(0.25, 0), 0u);
  EXPECT_EQ(WireChannel::topk_count(1e-9, 1000), 1u);  // never k = 0
  EXPECT_EQ(WireChannel::topk_count(0.25, 8), 2u);
  EXPECT_EQ(WireChannel::topk_count(1.0, 8), 8u);
  EXPECT_EQ(WireChannel::topk_count(0.3, 10), 3u);
}

TEST(WireChannelTopK, ExplicitZeroKShipsNothingAndValidates) {
  const std::vector<float> values = random_values(16, 3);
  const std::vector<float> reference = random_values(16, 4);
  const std::vector<std::uint8_t> payload =
      WireChannel::encode_topk_payload(values, reference, 0, false);
  EXPECT_EQ(check_wire_payload(kWireFormatTopK, payload.data(),
                               payload.size()),
            "");
  // k = 0: header + count/k words + bitmap, no half values.
  EXPECT_EQ(payload.size(), 5u + 8u + 2u);
  WireChannel receiver(spec_of("topk:0.5"));
  // Establish the matching reference via a keyframe, then apply the
  // explicit k = 0 frame: the model must be exactly unchanged.
  const std::vector<std::uint8_t> keyframe = WireChannel::encode_topk_payload(
      reference, {}, reference.size(), true);
  const std::vector<float> ref_decoded =
      receiver.decode(kWireFormatTopK, keyframe);
  const std::vector<std::uint8_t> zero_k = WireChannel::encode_topk_payload(
      values, ref_decoded, 0, false);
  EXPECT_TRUE(bitwise_equal(receiver.decode(kWireFormatTopK, zero_k),
                            ref_decoded));
}

TEST(WireChannelTopK, FullKShipsEveryCoordinateAsFp16) {
  const std::vector<float> values = random_values(16, 5);
  const std::vector<std::uint8_t> payload = WireChannel::encode_topk_payload(
      values, {}, values.size(), true);
  WireChannel receiver(spec_of("topk:1"));
  const std::vector<float> decoded =
      receiver.decode(kWireFormatTopK, payload);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_FLOAT_EQ(decoded[i], half_to_float(float_to_half(values[i]))) << i;
}

TEST(WireChannelTopK, NonSelectedCoordinatesKeepTheReference) {
  WireChannel sender(spec_of("topk:0.25"));
  WireChannel receiver(spec_of("topk:0.25"));
  std::vector<float> values = random_values(32, 6);
  const WireEncodeResult keyframe = sender.encode(values);
  const std::vector<float> reference =
      receiver.decode(kWireFormatTopK, keyframe.bytes);
  // Move 4 coordinates strongly; with k = ceil(0.25 * 32) = 8 the movers
  // must all ship and at least the untouched majority must stay bitwise.
  for (const std::size_t j : {1u, 9u, 17u, 25u}) values[j] += 3.0f;
  const WireEncodeResult wire = sender.encode(values);
  const std::vector<float> decoded =
      receiver.decode(kWireFormatTopK, wire.bytes);
  ASSERT_TRUE(bitwise_equal(decoded, wire.decoded));
  std::size_t changed = 0;
  for (std::size_t j = 0; j < values.size(); ++j)
    if (std::memcmp(&decoded[j], &reference[j], sizeof(float)) != 0)
      ++changed;
  EXPECT_LE(changed, 8u);
  for (const std::size_t j : {1u, 9u, 17u, 25u})
    EXPECT_NEAR(decoded[j], values[j], std::abs(values[j]) / 512.0 + 1e-3)
        << j;
}

// ---- stream-state faults ----

TEST(WireChannel, DesynchronizedReferenceIsRejected) {
  WireChannel sender(spec_of("delta+fp16"));
  WireChannel receiver(spec_of("delta+fp16"));
  const std::vector<float> values = random_values(24, 7);
  (void)receiver.decode(kWireFormatDeltaFp16, sender.encode(values).bytes);
  // Tamper with the receiver's reference by skipping one sender frame.
  (void)sender.encode(values);
  const WireEncodeResult next = sender.encode(values);
  EXPECT_THROW(
      {
        try {
          (void)receiver.decode(kWireFormatDeltaFp16, next.bytes);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("desynchronized"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(WireChannel, NonKeyframeBeforeKeyframeIsRejected) {
  WireChannel sender(spec_of("delta+f32"));
  const std::vector<float> values = random_values(8, 8);
  (void)sender.encode(values);                        // keyframe
  const WireEncodeResult second = sender.encode(values);  // non-keyframe
  WireChannel fresh(spec_of("delta+f32"));
  EXPECT_THROW((void)fresh.decode(kWireFormatDeltaF32, second.bytes),
               std::runtime_error);
}

TEST(ValidateStatefulPayload, RejectsCorruptMetadataWithOneLineErrors) {
  WireChannel sender(spec_of("topk:0.5"));
  const std::vector<float> values = random_values(16, 9);
  (void)sender.encode(values);
  const WireEncodeResult frame = sender.encode(values);
  const auto expect_reject = [](std::uint8_t tag,
                                std::vector<std::uint8_t> bytes) {
    const std::string error =
        check_wire_payload(tag, bytes.data(), bytes.size());
    EXPECT_NE(error, "");
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  };
  // Unknown flag bits.
  auto bad = frame.bytes;
  bad[0] |= 0x80;
  expect_reject(kWireFormatTopK, bad);
  // Index bitmap popcount != k.
  bad = frame.bytes;
  bad[5 + 8] ^= 0x01;
  expect_reject(kWireFormatTopK, bad);
  // Truncated half-value section.
  bad = frame.bytes;
  bad.resize(bad.size() - 1);
  expect_reject(kWireFormatTopK, bad);
  // k > count.
  bad = frame.bytes;
  bad[5 + 4] = 0xff;
  expect_reject(kWireFormatTopK, bad);
  // Read under a stateless tag, its length matches no fp16 count.
  expect_reject(kWireFormatFp16, frame.bytes);
  // The raw tag is the frame codec's own layout, never a wire payload.
  expect_reject(kWireFormatRaw, frame.bytes);
  // Delta with a zeroed int8 block-size word.
  WireChannel delta(spec_of("delta+int8"));
  auto delta_frame = delta.encode(values).bytes;
  for (std::size_t b = 0; b < 4; ++b) delta_frame[5 + 4 + b] = 0;
  expect_reject(kWireFormatDeltaInt8, delta_frame);
}

// An int8 count of 0xFFFFFFFF with block 1 in a 9-byte body announces
// 2^32 - 1 codes. The length check must reject it before anything is
// sized from that count (it once drove a 16 GiB allocation).
TEST(CheckWirePayload, CountDisagreeingWithLengthIsRejectedBeforeAllocation) {
  const std::vector<std::uint8_t> body = {0xff, 0xff, 0xff, 0xff,  // count
                                          0x01, 0x00, 0x00, 0x00,  // block
                                          0x00};
  std::vector<float> out;
  const std::string stateless = decode_stateless_payload(
      kWireFormatInt8, body.data(), body.size(), out);
  EXPECT_NE(stateless, "");
  EXPECT_TRUE(out.empty());

  // Keyframe flag, zero reference CRC, then the same body.
  const std::vector<std::uint8_t> delta = {
      0x01, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
      0x01, 0x00, 0x00, 0x00, 0x00};
  const std::string stateful =
      check_wire_payload(kWireFormatDeltaInt8, delta.data(), delta.size());
  EXPECT_NE(stateful, "");
  EXPECT_EQ(stateful.find('\n'), std::string::npos) << stateful;
  WireChannel receiver(spec_of("delta+int8"));
  EXPECT_THROW((void)receiver.decode(kWireFormatDeltaInt8, delta),
               std::runtime_error);

  // Framed: the stateless payload is a bad payload, and so is the
  // stateful one, with the CRC intact in both.
  const transport::FrameCodec codec;
  for (const auto& [tag, payload] :
       {std::pair{kWireFormatInt8, body},
        std::pair{kWireFormatDeltaInt8, delta}}) {
    net::Message m;
    m.from = net::client_id(0);
    m.to = net::server_id(0);
    m.kind = net::MessageKind::kModelUpload;
    m.encoded = payload;
    m.encoded_bytes = payload.size();
    m.wire_format = tag;
    const auto decoded = codec.decode(codec.encode(m));
    EXPECT_EQ(decoded.error, transport::FrameError::kBadPayload)
        << int(tag) << ": " << transport::to_string(decoded.error);
  }
}

// ---- wire-bytes golden ----

// Three chained rounds of a fixed 1,000-coordinate model. Finite values
// are small integers over powers of two, so the vector needs no libm and
// no RNG. It carries NaN, both infinities, both zeros, float and half
// subnormals, a value beyond the binary16 range, one all-zero int8 block
// ([128, 192)) and a partial final int8 block (1000 = 15 * 64 + 40).
std::vector<float> golden_model(std::size_t round) {
  std::vector<float> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t base = std::uint32_t(i) * 2654435761u;
    const std::uint32_t step = std::uint32_t(i) * 40503u + 17u;
    values[i] = float(int(base % 20001u) - 10000) / 4096.0f +
                float(round) * float(int(step % 201u) - 100) / 65536.0f;
  }
  for (std::size_t i = 128; i < 192; ++i) values[i] = 0.0f;
  values[1] = kNan;
  values[2] = kInf;
  values[3] = -kInf;
  values[4] = 0.0f;
  values[5] = -0.0f;
  values[6] = std::numeric_limits<float>::denorm_min();
  values[7] = -1e-40f;  // float subnormal
  values[8] = 3e-6f;    // binary16 subnormal
  values[9] = 1e5f;     // beyond the binary16 range
  return values;
}

struct WireGolden {
  const char* spec;
  std::uint32_t frame_crc[3];    // CRC32C of each frame's header + payload
  std::uint32_t decoded_crc[3];  // CRC32C of each receiver-decoded model
};

// Committed wire bytes: any change to a payload layout, a quantizer's
// arithmetic or the frame header moves one of these.
constexpr WireGolden kWireGolden[] = {
    {"f32",
     {0x470157ffu, 0xa74171c4u, 0x75ed6b35u},
     {0xdaa1cacbu, 0x26fee58fu, 0xd073e4ffu}},
    {"fp16",
     {0x679d28c0u, 0x0020d4d9u, 0x3de522c4u},
     {0xe69c20a5u, 0xa44fca62u, 0x97ac60c1u}},
    {"int8",
     {0xd8acd56fu, 0x09480714u, 0xaa55a61fu},
     {0xc0048e20u, 0x731c5912u, 0x9e8ef1d9u}},
    {"topk:0.25",
     {0xd324fa29u, 0xc7c2b890u, 0x2f370cd0u},
     {0xe69c20a5u, 0x764c5e28u, 0xf5e19333u}},
    {"delta+f32",
     {0x8dd42ef8u, 0x70d76690u, 0xc96d5cf0u},
     {0xdaa1cacbu, 0x50e17109u, 0xa66c7079u}},
    {"delta+fp16",
     {0x9d265670u, 0x4f50c095u, 0x0f9a5a31u},
     {0xe69c20a5u, 0x818a3129u, 0x77073059u}},
    {"delta+int8",
     {0x58637529u, 0x3e55814bu, 0xba25df0eu},
     {0xc0048e20u, 0xf3167dbcu, 0x1f2bdd3du}},
};

TEST(WireGolden, FramesAndDecodedModelsAreByteIdentical) {
  // The goldens were recorded under round-to-nearest. The quantizers'
  // results may differ under other fenv modes (the determinism contract
  // promises agreement within a mode, not across modes), so the sweep in
  // scripts/check.sh must not move the bytes this test pins.
  const core::ScopedRoundingMode nearest(FE_TONEAREST);
  const transport::FrameCodec codec;
  for (const WireGolden& golden : kWireGolden) {
    const WireEncodingSpec spec = spec_of(golden.spec);
    WireChannel sender(spec);
    WireChannelBook receivers(spec);
    for (std::size_t round = 0; round < 3; ++round) {
      net::Message m;
      m.from = net::server_id(0);
      m.to = net::client_id(1);
      m.kind = net::MessageKind::kModelBroadcast;
      m.round = round;
      const std::vector<float> model = golden_model(round);
      if (spec.is_f32())
        m.payload = model;
      else
        encode_payload(m, sender, model, /*keep_bytes=*/true);
      const std::vector<std::uint8_t> frame = codec.encode(m);
      transport::FrameCodec::DecodeResult decoded = codec.decode(frame);
      ASSERT_TRUE(decoded.ok()) << golden.spec << " round " << round;
      finish_wire_payload(decoded.message, receivers);
      EXPECT_TRUE(bitwise_equal(decoded.message.payload, m.payload))
          << golden.spec << " round " << round;
      // The frame's own trailer; it covers every header and payload byte.
      const std::uint32_t frame_crc =
          transport::crc32c(frame.data(), frame.size() - 4);
      const std::uint32_t decoded_crc =
          transport::crc32c_floats(decoded.message.payload);
      EXPECT_EQ(frame_crc, golden.frame_crc[round])
          << golden.spec << " round " << round << std::hex
          << ": frame crc 0x" << frame_crc;
      EXPECT_EQ(decoded_crc, golden.decoded_crc[round])
          << golden.spec << " round " << round << std::hex
          << ": decoded crc 0x" << decoded_crc;
    }
  }
}

// ---- mixed-encoding rounds over the in-memory hub ----

TEST(MixedEncodingFleet, ServerHonorsEachPeersAnnouncedEncoding) {
  transport::InMemoryHub hub;
  auto server = hub.make_endpoint(net::server_id(0));
  auto alice = hub.make_endpoint(net::client_id(0), "fp16");
  auto bob = hub.make_endpoint(net::client_id(1), "topk:0.25");
  auto carol = hub.make_endpoint(net::client_id(2));  // default f32

  EXPECT_EQ(server->peer_encoding(net::client_id(0)), "fp16");
  EXPECT_EQ(server->peer_encoding(net::client_id(1)), "topk:0.25");
  EXPECT_EQ(server->peer_encoding(net::client_id(2)), "f32");

  const std::vector<float> model = random_values(64, 10);
  WireChannelBook broadcast_channels(spec_of("f32"));
  for (std::size_t k = 0; k < 3; ++k) {
    const net::NodeId to = net::client_id(k);
    net::Message m;
    m.from = net::server_id(0);
    m.to = to;
    m.kind = net::MessageKind::kModelBroadcast;
    WireEncodingSpec spec;
    ASSERT_EQ(parse_wire_encoding(server->peer_encoding(to), &spec), "");
    if (spec.is_f32()) {
      m.payload = model;
    } else {
      WireEncodeResult wire =
          broadcast_channels.channel(to, spec).encode(model);
      m.payload = std::move(wire.decoded);
      m.encoded = std::move(wire.bytes);
      m.encoded_bytes = m.encoded.size();
      m.wire_format = spec.format_tag();
    }
    server->send(std::move(m));
  }

  const auto take = [](transport::Transport& endpoint) {
    std::optional<net::Message> m = endpoint.receive(5.0);
    EXPECT_TRUE(m.has_value());
    return *m;
  };
  const net::Message to_alice = take(*alice);
  const net::Message to_bob = take(*bob);
  const net::Message to_carol = take(*carol);

  // Lossless client: bit-for-bit, no compression markers.
  EXPECT_EQ(to_carol.wire_format, kWireFormatRaw);
  EXPECT_EQ(to_carol.encoded_bytes, 0u);
  EXPECT_TRUE(bitwise_equal(to_carol.payload, model));

  // fp16 client: half the bytes, values within binary16 rounding.
  EXPECT_EQ(to_alice.wire_format, kWireFormatFp16);
  EXPECT_GT(to_alice.encoded_bytes, 0u);
  EXPECT_LT(to_alice.encoded_bytes, model.size() * 4);
  ASSERT_EQ(to_alice.payload.size(), model.size());
  for (std::size_t j = 0; j < model.size(); ++j)
    EXPECT_NEAR(to_alice.payload[j], model[j],
                std::abs(model[j]) / 1024.0 + 1e-6)
        << j;

  // Top-k client: the keyframe ships all coordinates as fp16.
  EXPECT_EQ(to_bob.wire_format, kWireFormatTopK);
  ASSERT_EQ(to_bob.payload.size(), model.size());
  for (std::size_t j = 0; j < model.size(); ++j)
    EXPECT_NEAR(to_bob.payload[j], model[j],
                std::abs(model[j]) / 1024.0 + 1e-6)
        << j;
}

// ---- end to end: wire encodings cut bytes, not accuracy ----

// fp16's 2^-11 relative error is negligible for SGD.
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
