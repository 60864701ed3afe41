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
//   7      1    payload format (fl::kWireFormat*)
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
//   kWireFormatRaw : u64 value count + count×f32  (L = 8 + 4·count)
//   any other tag  : the fl::wire_encoding payload, verbatim
//                    (L = Message::encoded_bytes). decode() checks its
//                    structure with fl::check_wire_payload, decodes
//                    fp16/int8 straight from the frame bytes, and returns
//                    top-k/delta bytes undecoded: the receiver's
//                    per-stream fl::WireChannel materializes those floats
//                    (fl::finish_wire_payload).
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

#include "core/crc32c.h"
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

enum class FrameError {
  kNone = 0,
  kTruncated,       // fewer bytes than the header/frame announces
  kBadMagic,        // not a Fed-MS frame
  kBadVersion,      // protocol version mismatch
  kBadKind,         // unknown MessageKind
  kBadFormat,       // unknown payload format tag
  kBadNodeKind,     // node kind byte out of range
  kBadReserved,     // reserved header bytes not zero
  kLengthMismatch,  // payload length inconsistent with its own contents
  kCrcMismatch,     // CRC32C trailer does not match (bit corruption)
  kBadPayload,      // CRC passed but fl::check_wire_payload rejected it
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

// The frame trailer's checksum (core/crc32c.h), kept reachable under the
// transport names its callers have always used.
using core::crc32c;
using core::crc32c_floats;

class FrameCodec {
 public:
  // Stateless: every frame is self-describing (fp16/int8 decode here,
  // top-k/delta are checked and left for the receiver's fl::WireChannel),
  // so any codec decodes any frame.
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
