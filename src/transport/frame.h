// Versioned binary wire format for net::Message — the on-the-wire
// representation behind the byte counts the simulation has always billed.
//
// Frame layout (little-endian, fixed 60-byte header + payload + 4-byte
// CRC32C trailer; total overhead = net::kMessageHeaderBytes = 64):
//
//   offset size field
//   0      4    magic "FMS1"
//   4      2    protocol version (kProtocolVersion)
//   6      1    message kind (net::MessageKind)
//   7      1    payload format (PayloadFormat)
//   8      8    round
//   16     8    from node index
//   24     8    to node index
//   32     8    payload length in bytes
//   40     1    from node kind (0 = client, 1 = server)
//   41     1    to node kind
//   42     18   reserved — must be zero, except in kHello frames, where
//               they carry the peer's announced wire-encoding spec as a
//               NUL-padded ASCII string (empty = lossless f32). This is
//               the per-connection negotiation: the PS broadcasts to each
//               client in the encoding that client's hello announced.
//   60     L    payload section
//   60+L   4    CRC32C over bytes [0, 60+L)
//
// Payload section by format:
//   kRawFloat32    : u64 value count + count×f32  (L = 8 + 4·count)
//   kFp16/kInt8    : the fl::PayloadCodec's encoded buffer, verbatim —
//                    self-describing (L = Message::encoded_bytes)
//   kTopK/kDelta*  : fl::wire_encoding stateful payload (flags byte,
//                    reference CRC, then the top-k bitmap+values or the
//                    base-codec diff buffer). decode() validates the
//                    structure and returns the bytes undecoded — the
//                    receiver's per-stream fl::WireChannel materializes
//                    the floats (fl::finish_wire_payload).
//
// The encoder contract-checks that every frame's size equals
// net::wire_size(message), so the simulated accounting and the real bytes
// can never drift. The decoder never throws and never aborts on untrusted
// input: every truncation, bit flip, or malformed payload comes back as a
// FrameError.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/message.h"

namespace fedms::core {
class Rng;
}

namespace fedms::transport {

inline constexpr std::uint32_t kFrameMagic = 0x31534D46u;  // "FMS1"
inline constexpr std::uint16_t kProtocolVersion = 1;

// Layout constants live in net/message.h so the simulation's accounting is
// defined by the same numbers; pin them here for readers of this header.
inline constexpr std::size_t kFrameHeaderBytes = net::kFrameHeaderBytes;
inline constexpr std::size_t kFrameTrailerBytes = net::kFrameTrailerBytes;

enum class PayloadFormat : std::uint8_t {
  kRawFloat32 = 0,
  kFp16 = 1,
  kInt8 = 2,
  kTopK = 3,       // top-k partial sharing (bitmap + fp16 values)
  kDeltaF32 = 4,   // diff vs the stream's previous model, raw f32
  kDeltaFp16 = 5,  // diff, fp16-quantized
  kDeltaInt8 = 6,  // diff, int8-per-block quantized
};
inline constexpr std::uint8_t kPayloadFormatCount = 7;

enum class FrameError {
  kNone = 0,
  kTruncated,       // fewer bytes than the header/frame announces
  kBadMagic,        // not a Fed-MS frame
  kBadVersion,      // protocol version mismatch
  kBadKind,         // unknown MessageKind
  kBadFormat,       // unknown PayloadFormat, or format needs a codec we lack
  kBadNodeKind,     // node kind byte out of range
  kBadReserved,     // reserved header bytes not zero
  kLengthMismatch,  // payload length inconsistent with its own contents
  kCrcMismatch,     // CRC32C trailer does not match (bit corruption)
  kBadPayload,      // CRC passed but the codec rejected the payload
};

const char* to_string(FrameError error);

// True for protocol-plumbing kinds that exist only on real transports
// (never billed as data traffic): hello, round-sync, retry requests.
bool is_control(net::MessageKind kind);

// Transit-corruption injection for tests and experiments, shared by every
// socket sender: with probability `rate`, flips one payload bit of the
// encoded data `frame` after its CRC was computed, so the receiver's
// check rejects the frame while the stream stays framed. Control frames
// are never touched. A zero rate returns before any RNG draw.
void inject_corruption(net::MessageKind kind, double rate, core::Rng& rng,
                       std::vector<std::uint8_t>& frame);

// CRC32C (Castagnoli), reflected polynomial 0x82F63B78 — the checksum used
// by the frame trailer. `seed` allows incremental computation.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t seed = 0);
// Convenience: CRC32C over a float vector's byte representation (used to
// fingerprint model states across process boundaries).
std::uint32_t crc32c_floats(const std::vector<float>& values);

class FrameCodec {
 public:
  // Stateless: decoding is self-describing (kFp16/kInt8 through the
  // stateless codecs, kTopK/kDelta* validated structurally and left for
  // the receiver's fl::WireChannel), so any codec decodes any frame.
  FrameCodec() = default;
  // Accepts only "none"; kept because the frozen perfbench harness
  // constructs FrameCodec("none").
  explicit FrameCodec(const std::string& session);

  // Total on-the-wire size encode() will produce — delegates to
  // net::wire_size, the shared accounting definition.
  static std::size_t framed_size(const net::Message& message);

  // Serializes one frame. Encoded messages (encoded_bytes > 0) must carry
  // their wire_format and the encoded buffer, which is shipped verbatim.
  // ENSURES the output size equals framed_size(message).
  std::vector<std::uint8_t> encode(const net::Message& message) const;
  void encode_to(const net::Message& message,
                 std::vector<std::uint8_t>& out) const;

  struct DecodeResult {
    net::Message message;
    FrameError error = FrameError::kNone;
    bool ok() const { return error == FrameError::kNone; }
  };

  // Decodes exactly one frame from `data`. Trailing bytes beyond the
  // frame's own length are an error (use frame_size() to split a stream).
  DecodeResult decode(const std::uint8_t* data, std::size_t size) const;
  DecodeResult decode(const std::vector<std::uint8_t>& buffer) const;

  // Stream framing: the total frame size announced by a (possibly partial)
  // buffer, or nullopt when fewer than kFrameHeaderBytes are available.
  // Sets `error` (when non-null) if the header is already invalid — an
  // unrecoverable stream for a socket reader.
  static std::optional<std::size_t> frame_size(const std::uint8_t* data,
                                               std::size_t size,
                                               FrameError* error = nullptr);

};

}  // namespace fedms::transport
