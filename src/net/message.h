// Messages exchanged over the simulated network and the real transport.
//
// The payload is the flat float vector the FL layer works with; its
// wire size is what the transport frame codec (src/transport/frame.h)
// actually emits: a fixed header, the length-prefixed float payload (or
// the codec-encoded bytes), and a CRC32C trailer. Simulated accounting
// and real framing share the layout constants below so they can never
// drift — transport/frame.cpp static-asserts its field offsets against
// them and contract-checks every encoded frame against `wire_size`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/node_id.h"

namespace fedms::net {

enum class MessageKind : std::uint8_t {
  kModelUpload,     // client -> PS: local model after E local steps
  kModelBroadcast,  // PS -> client: aggregated (possibly tampered) model
  kRetryRequest,    // client -> PS: re-request a missed broadcast (runtime)
  kHello,           // transport: peer identification after connect
  kRoundSync,       // transport: "all my messages for this round are sent"
};

// One past the last valid MessageKind (frame decoding rejects beyond it).
inline constexpr std::uint8_t kMessageKindCount = 5;

struct Message {
  NodeId from;
  NodeId to;
  MessageKind kind = MessageKind::kModelUpload;
  std::uint64_t round = 0;
  std::vector<float> payload{};
  // When a lossy codec was applied, `payload` holds the *decoded* values
  // the receiver observes and this field holds the encoded size actually
  // sent over the wire. 0 means uncompressed (size derived from payload).
  std::size_t encoded_bytes = 0;
  // The codec's actual output when encoded_bytes > 0, carried so a real
  // wire transport ships the encoded bytes without re-encoding (and the
  // receiver's decode is bit-identical to what the sender observed).
  // Simulation paths may leave it empty: accounting only needs the size.
  std::vector<std::uint8_t> encoded{};
  // Wire-encoding format tag stamped into the frame header's format byte
  // when encoded_bytes > 0 (fl::kWireFormat*). 0 = raw float32.
  std::uint8_t wire_format = 0;
  // kHello only: the wire-encoding spec this peer wants its broadcasts
  // in, carried in the frame header's reserved bytes (<= 18 ASCII chars;
  // empty = lossless f32 default).
  std::string hello_encoding{};
};

// Raw serialized payload size (length prefix + floats), ignoring any codec.
std::size_t payload_bytes(const Message& message);

// Wire size in bytes of the framed message: fixed header + trailer, plus
// the length-prefixed float payload, or the encoded bytes when a codec was
// applied. This is both what the simulation bills and what
// transport::FrameCodec::encode emits (contract-checked there). Contract:
// a nonzero encoded_bytes requires a non-empty decoded payload or the
// encoded buffer itself — an "encoded" size on a message that carries
// nothing is always an accounting bug.
std::size_t wire_size(const Message& message);

// Frame layout budget shared with transport/frame.h: a fixed binary
// header (magic, version, kind, payload format, round, node ids, payload
// length) and a CRC32C trailer. Their sum is the per-message overhead the
// simulation has always billed as `kMessageHeaderBytes`.
inline constexpr std::size_t kFrameHeaderBytes = 60;
inline constexpr std::size_t kFrameTrailerBytes = 4;
inline constexpr std::size_t kMessageHeaderBytes =
    kFrameHeaderBytes + kFrameTrailerBytes;
static_assert(kMessageHeaderBytes == 64,
              "the 64-byte per-message budget is baked into recorded "
              "traffic numbers; widen only with a protocol version bump");

const char* to_string(MessageKind kind);

}  // namespace fedms::net
