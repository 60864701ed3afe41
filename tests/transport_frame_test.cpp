#include "transport/frame.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.h"
#include "fl/wire_encoding.h"
#include "net/message.h"
#include "testing/test_seed.h"

namespace fedms::transport {
namespace {

// Satellite (a): the codec's real overhead is exactly the header budget the
// simulation has always billed per message.
static_assert(net::kFrameHeaderBytes + net::kFrameTrailerBytes ==
              net::kMessageHeaderBytes);
static_assert(net::kMessageHeaderBytes == 64,
              "frame overhead must fit the 64-byte per-message budget");

net::Message make_message(net::MessageKind kind, std::size_t dim,
                          std::uint64_t round = 7) {
  net::Message m;
  m.from = kind == net::MessageKind::kModelUpload ? net::client_id(3)
                                                  : net::server_id(1);
  m.to = kind == net::MessageKind::kModelUpload ? net::server_id(2)
                                                : net::client_id(5);
  m.kind = kind;
  m.round = round;
  for (std::size_t i = 0; i < dim; ++i)
    m.payload.push_back(0.25f * float(i) - 3.0f);
  return m;
}

void expect_equal(const net::Message& a, const net::Message& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
}

TEST(Crc32c, KnownAnswer) {
  // The standard CRC32C check value (RFC 3720 appendix / "123456789").
  const char* input = "123456789";
  EXPECT_EQ(crc32c(reinterpret_cast<const std::uint8_t*>(input), 9),
            0xE3069283u);
}

// RFC 3720 appendix B.4: the iSCSI CRC32C test vectors.
TEST(Crc32c, Rfc3720Vectors) {
  std::uint8_t zeros[32], ones[32], ascending[32], descending[32];
  for (std::size_t i = 0; i < 32; ++i) {
    zeros[i] = 0x00;
    ones[i] = 0xFF;
    ascending[i] = std::uint8_t(i);
    descending[i] = std::uint8_t(31 - i);
  }
  for (const auto crc : {&crc32c, &core::crc32c_reference}) {
    EXPECT_EQ(crc(zeros, 32, 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, 32, 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, 32, 0), 0x46DD794Eu);
    EXPECT_EQ(crc(descending, 32, 0), 0x113FDB5Cu);
  }
}

// The dispatched CRC (the SSE4.2 word loop where the host has it) against
// the byte table it replaced: every length across the word/tail split, at
// every alignment, from random seeds, and chained at every split point.
TEST(Crc32c, DispatchedMatchesTableOracle) {
  const std::uint64_t seed = fedms::testing::test_seed(0xC3C32Cu);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(
      seed, "Crc32c.DispatchedMatchesTableOracle"));
  core::Rng rng(seed);
  std::vector<std::uint8_t> buffer(1100 + 8);
  for (std::uint8_t& byte : buffer) byte = std::uint8_t(rng.uniform_index(256));
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t size = 0; size <= 1100; ++size) {
      const auto start = std::uint32_t(rng.uniform_index(1ull << 32));
      const std::uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(crc32c(data, size, start),
                core::crc32c_reference(data, size, start))
          << "offset " << offset << " size " << size << " seed " << start;
    }

  const std::uint8_t* data = buffer.data();
  const std::uint32_t whole = core::crc32c_reference(data, 300);
  for (std::size_t split = 0; split <= 300; ++split)
    ASSERT_EQ(crc32c(data + split, 300 - split, crc32c(data, split)), whole)
        << "split " << split;
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(nullptr, 0), 0u); }

TEST(Crc32c, FloatsMatchesByteView) {
  const std::vector<float> values = {1.5f, -2.25f, 0.0f};
  std::uint8_t bytes[12];
  std::memcpy(bytes, values.data(), sizeof bytes);
  EXPECT_EQ(crc32c_floats(values), crc32c(bytes, sizeof bytes));
}

TEST(FrameCodec, RoundTripsEveryKind) {
  const FrameCodec codec;
  const net::MessageKind kinds[] = {
      net::MessageKind::kModelUpload, net::MessageKind::kModelBroadcast,
      net::MessageKind::kRetryRequest, net::MessageKind::kHello,
      net::MessageKind::kRoundSync};
  static_assert(sizeof(kinds) / sizeof(kinds[0]) == net::kMessageKindCount);
  for (const net::MessageKind kind : kinds) {
    const net::Message original = make_message(kind, 17);
    const std::vector<std::uint8_t> frame = codec.encode(original);
    EXPECT_EQ(frame.size(), net::wire_size(original));
    EXPECT_EQ(frame.size(), FrameCodec::framed_size(original));
    const FrameCodec::DecodeResult decoded = codec.decode(frame);
    ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
    expect_equal(decoded.message, original);
  }
}

TEST(FrameCodec, RoundTripsEmptyAndLargePayloads) {
  const FrameCodec codec;
  for (const std::size_t dim : {std::size_t(0), std::size_t(1),
                                std::size_t(100000)}) {
    const net::Message original =
        make_message(net::MessageKind::kModelUpload, dim);
    const auto frame = codec.encode(original);
    EXPECT_EQ(frame.size(), net::kMessageHeaderBytes + 8 + 4 * dim);
    const auto decoded = codec.decode(frame);
    ASSERT_TRUE(decoded.ok());
    expect_equal(decoded.message, original);
  }
}

// The sender's lossy round-trip under a stateless wire encoding: payload
// holds the decoded values, the wire ships the encoded buffer.
net::Message make_encoded_message(const std::string& encoding,
                                  std::size_t dim) {
  fl::WireChannel channel(fl::wire_encoding_spec(encoding));
  net::Message m = make_message(net::MessageKind::kModelUpload, dim);
  fl::encode_payload(m, channel, m.payload, /*keep_bytes=*/true);
  return m;
}

TEST(FrameCodec, RoundTripsCompressedPayloads) {
  const FrameCodec codec;
  for (const net::Message& original : {make_encoded_message("fp16", 300),
                                       make_encoded_message("int8", 300)}) {
    const auto frame = codec.encode(original);
    EXPECT_EQ(frame.size(), net::wire_size(original));
    EXPECT_EQ(frame.size(),
              net::kMessageHeaderBytes + original.encoded_bytes);

    const auto decoded = codec.decode(frame);
    ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
    expect_equal(decoded.message, original);
    EXPECT_EQ(decoded.message.encoded, original.encoded);
    EXPECT_EQ(decoded.message.wire_format, original.wire_format);
  }
}

TEST(FrameCodec, CompressedFramesAreSelfDescribing) {
  // Negotiated encodings mean a receiver cannot know the sender's encoder
  // in advance: a stateless int8 frame with a block size other than the
  // encoder's decodes with no agreement beyond the header's format byte.
  // 40 values in blocks of 16: count, block, then (scale, codes) x 3.
  net::Message m = make_message(net::MessageKind::kModelUpload, 0);
  const auto put_u32 = [&m](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) m.encoded.push_back(std::uint8_t(v >> (8 * i)));
  };
  put_u32(40);
  put_u32(16);
  for (std::size_t begin = 0; begin < 40; begin += 16) {
    const float scale = 0.5f * float(begin / 16 + 1);
    std::uint32_t bits;
    std::memcpy(&bits, &scale, 4);
    put_u32(bits);
    for (std::size_t i = begin; i < std::min<std::size_t>(begin + 16, 40);
         ++i) {
      const int q = int(i % 21) - 10;
      m.encoded.push_back(std::uint8_t(std::int8_t(q)));
      m.payload.push_back(float(q) * scale);
    }
  }
  m.encoded_bytes = m.encoded.size();
  m.wire_format = fl::kWireFormatInt8;
  const auto frame = FrameCodec().encode(m);

  const auto decoded = FrameCodec().decode(frame);
  ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
  EXPECT_EQ(decoded.message.payload, m.payload);
  EXPECT_EQ(decoded.message.encoded, m.encoded);
}

TEST(FrameCodecDeath, EncodedMessagesMustCarryTheirBytes) {
  // Frames ship the sender's encoded buffer verbatim and never re-encode
  // the decoded payload, so a message must carry its bytes.
  net::Message m = make_encoded_message("fp16", 8);
  m.encoded.clear();
  EXPECT_DEATH((void)FrameCodec().encode(m), "Precondition");
}

TEST(FrameCodecDeath, SessionSpecMustBeNone) {
  EXPECT_DEATH(FrameCodec("fp16"), "Precondition");
}

TEST(FrameCodec, StatefulFramesValidateAndDeferDecoding) {
  // Top-k / delta frames need the receiver's per-stream reference, which
  // the codec does not have: decode() validates the structure and returns
  // the bytes undecoded (empty payload, encoded carried).
  fl::WireEncodingSpec spec;
  ASSERT_EQ(fl::parse_wire_encoding("topk:0.5", &spec), "");
  fl::WireChannel sender(spec);
  net::Message m = make_message(net::MessageKind::kModelBroadcast, 24);
  fl::WireEncodeResult wire = sender.encode(m.payload);
  m.payload = wire.decoded;
  m.encoded = wire.bytes;
  m.encoded_bytes = wire.bytes.size();
  m.wire_format = fl::kWireFormatTopK;

  const FrameCodec codec;
  const auto frame = codec.encode(m);
  EXPECT_EQ(frame.size(), net::wire_size(m));
  const auto decoded = codec.decode(frame);
  ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
  EXPECT_TRUE(decoded.message.payload.empty());
  EXPECT_EQ(decoded.message.encoded, wire.bytes);
  EXPECT_EQ(decoded.message.wire_format, fl::kWireFormatTopK);

  // The receiver's channel materializes the floats bit-identically to the
  // sender's own round-trip.
  fl::WireChannel receiver(spec);
  net::Message finished = decoded.message;
  fl::WireChannelBook book(spec);
  fl::finish_wire_payload(finished, book);
  EXPECT_EQ(finished.payload, wire.decoded);
}

TEST(FrameCodec, CorruptedStatefulMetadataIsBadPayload) {
  fl::WireEncodingSpec spec;
  ASSERT_EQ(fl::parse_wire_encoding("topk:0.5", &spec), "");
  fl::WireChannel sender(spec);
  net::Message m = make_message(net::MessageKind::kModelBroadcast, 24);
  (void)sender.encode(m.payload);  // keyframe: k == dim
  fl::WireEncodeResult wire = sender.encode(m.payload);
  // Flip one index-bitmap bit: popcount(bitmap) no longer matches k. The
  // CRC is recomputed by encode(), so only the structural check can catch
  // this (a tampering sender, not line noise).
  wire.bytes[5 + 8] ^= 0x01;
  m.payload = wire.decoded;
  m.encoded = wire.bytes;
  m.encoded_bytes = wire.bytes.size();
  m.wire_format = fl::kWireFormatTopK;
  const FrameCodec codec;
  const auto decoded = codec.decode(codec.encode(m));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, FrameError::kBadPayload);
}

TEST(FrameCodec, HelloCarriesAnnouncedEncodingInReservedBytes) {
  const FrameCodec codec;
  for (const char* announced : {"", "fp16", "topk:0.25", "delta+int8"}) {
    net::Message hello = make_message(net::MessageKind::kHello, 0);
    hello.hello_encoding = announced;
    const auto frame = codec.encode(hello);
    const auto decoded = codec.decode(frame);
    ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
    EXPECT_EQ(decoded.message.hello_encoding, announced);
  }
}

TEST(FrameCodec, HelloEncodingBadCharsetIsBadReserved) {
  const FrameCodec codec;
  net::Message hello = make_message(net::MessageKind::kHello, 0);
  hello.hello_encoding = "fp16";
  auto frame = codec.encode(hello);
  // Reserved bytes start at offset 42; inject an uppercase byte (outside
  // the spec charset) and re-seal the CRC so only the charset check fires.
  frame[42] = 'F';
  const std::uint32_t crc = crc32c(frame.data(), frame.size() - 4);
  for (int i = 0; i < 4; ++i)
    frame[frame.size() - 4 + i] = std::uint8_t(crc >> (8 * i));
  const auto decoded = codec.decode(frame);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, FrameError::kBadReserved);
}

TEST(FrameCodec, EverySingleByteTruncationIsRejected) {
  const FrameCodec codec;
  const net::Message original =
      make_message(net::MessageKind::kModelUpload, 25);
  const auto frame = codec.encode(original);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto decoded = codec.decode(frame.data(), len);
    EXPECT_FALSE(decoded.ok()) << "decoded at truncated length " << len;
    EXPECT_EQ(decoded.error, FrameError::kTruncated) << "length " << len;
  }
}

TEST(FrameCodec, TrailingBytesAreRejected) {
  const FrameCodec codec;
  auto frame = codec.encode(make_message(net::MessageKind::kRoundSync, 0));
  frame.push_back(0);
  const auto decoded = codec.decode(frame);
  EXPECT_FALSE(decoded.ok());
}

TEST(FrameCodec, EverySingleBitFlipIsRejected) {
  const FrameCodec codec;
  const net::Message original =
      make_message(net::MessageKind::kModelBroadcast, 40);
  const auto frame = codec.encode(original);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupted = frame;
    corrupted[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    // Must never crash, never silently mis-decode — every flip is caught
    // by header validation or the CRC trailer.
    const auto decoded = codec.decode(corrupted);
    EXPECT_FALSE(decoded.ok()) << "bit " << bit << " flip not detected";
  }
}

TEST(FrameCodec, PayloadBitFlipsAreCrcMismatches) {
  const FrameCodec codec;
  const auto frame =
      codec.encode(make_message(net::MessageKind::kModelUpload, 12));
  for (std::size_t bit = net::kFrameHeaderBytes * 8;
       bit < (frame.size() - net::kFrameTrailerBytes) * 8; ++bit) {
    std::vector<std::uint8_t> corrupted = frame;
    corrupted[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    const auto decoded = codec.decode(corrupted);
    EXPECT_EQ(decoded.error, FrameError::kCrcMismatch) << "bit " << bit;
  }
}

TEST(FrameCodec, RejectsWrongMagicVersionKindReserved) {
  const FrameCodec codec;
  const auto frame =
      codec.encode(make_message(net::MessageKind::kModelUpload, 4));

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = frame;
    bad[offset] = value;
    return codec.decode(bad).error;
  };
  EXPECT_EQ(mutate(0, 'X'), FrameError::kBadMagic);
  EXPECT_EQ(mutate(4, 0xEE), FrameError::kBadVersion);
  EXPECT_EQ(mutate(6, 250), FrameError::kBadKind);
  EXPECT_EQ(mutate(7, 250), FrameError::kBadFormat);
  EXPECT_EQ(mutate(40, 9), FrameError::kBadNodeKind);  // from kind
  EXPECT_EQ(mutate(41, 9), FrameError::kBadNodeKind);  // to kind
  EXPECT_EQ(mutate(45, 1), FrameError::kBadReserved);
}

TEST(FrameCodec, FrameSizeAnnouncesTotalAndFlagsBadHeaders) {
  const FrameCodec codec;
  const net::Message m = make_message(net::MessageKind::kModelUpload, 10);
  const auto frame = codec.encode(m);

  // Partial header: unknown size, no error.
  FrameError error = FrameError::kNone;
  EXPECT_FALSE(
      FrameCodec::frame_size(frame.data(), 10, &error).has_value());
  EXPECT_EQ(error, FrameError::kNone);

  // Full header: the exact total size, even with only the header present.
  const auto size =
      FrameCodec::frame_size(frame.data(), net::kFrameHeaderBytes, &error);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, frame.size());
  EXPECT_EQ(error, FrameError::kNone);

  // A broken magic is an unrecoverable stream.
  std::vector<std::uint8_t> bad = frame;
  bad[1] = 'Z';
  error = FrameError::kNone;
  EXPECT_FALSE(
      FrameCodec::frame_size(bad.data(), bad.size(), &error).has_value());
  EXPECT_EQ(error, FrameError::kBadMagic);
}

TEST(FrameCodec, RandomizedRoundTripFuzz) {
  core::Rng rng(20240806);
  const FrameCodec codec;
  for (int iteration = 0; iteration < 300; ++iteration) {
    net::Message m;
    const bool up = rng.bernoulli(0.5);
    m.from = up ? net::client_id(rng.uniform_index(1000))
                : net::server_id(rng.uniform_index(1000));
    m.to = up ? net::server_id(rng.uniform_index(1000))
              : net::client_id(rng.uniform_index(1000));
    m.kind = static_cast<net::MessageKind>(
        rng.uniform_index(net::kMessageKindCount));
    m.round = rng.uniform_index(1u << 20);
    const std::size_t dim = rng.uniform_index(400);
    for (std::size_t i = 0; i < dim; ++i)
      m.payload.push_back(float(rng.normal(0.0, 10.0)));

    const auto frame = codec.encode(m);
    ASSERT_EQ(frame.size(), net::wire_size(m));
    const auto decoded = codec.decode(frame);
    ASSERT_TRUE(decoded.ok()) << to_string(decoded.error);
    expect_equal(decoded.message, m);
  }
}

TEST(FrameCodec, RandomGarbageNeverDecodes) {
  core::Rng rng(99);
  const FrameCodec codec;
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(256));
    for (auto& byte : garbage)
      byte = std::uint8_t(rng.uniform_index(256));
    const auto decoded = codec.decode(garbage);
    // 2^-32 odds of a random CRC collision aside, garbage must surface as
    // an error, and must never crash or allocate absurdly.
    EXPECT_FALSE(decoded.ok());
  }
}

}  // namespace
}  // namespace fedms::transport
