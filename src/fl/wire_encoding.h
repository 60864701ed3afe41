// Negotiated wire encodings for model payloads.
//
// The CRC32C frame codec ships every model as raw float32 by default.
// This layer adds the compressed wire path and is the only code that
// knows a payload's layout: fp16 and int8-per-block-scale quantization,
// delta encoding against the previous round's model on the same stream,
// and top-k partial sharing with an index bitmap (Lari et al.,
// PAPERS.md). Encodings are negotiated per connection at kHello time —
// each client announces the encoding it wants its broadcasts in, so
// heterogeneous fleets mix encodings — and every frame is self-describing
// via the header's format byte, so decode never needs the negotiation
// result.
//
// Spec grammar (the `--wire-encoding` flag):
//
//   f32                   lossless float32 (default; bit-for-bit oracles)
//   fp16 | int8           stateless per-message quantization
//   delta+f32|fp16|int8   encode the diff against the stream's previous
//                         model, then quantize the diff
//   topk:<frac>           send only the ceil(frac*dim) coordinates that
//                         moved most since the stream's previous model
//                         (fp16 values + index bitmap), frac in (0,1]
//
// Payload layouts (little-endian). The three bases:
//   f32    u32 count, count × f32
//   fp16   u32 count, count × binary16
//   int8   u32 count, u32 block, then per block of `block` coordinates
//          (the last may be partial): f32 scale = finite max-abs / 127,
//          one int8 code per coordinate (-128 = non-finite, decoded NaN)
// fp16 and int8 ship as their base payload. Stateful payloads start with
// a flags byte (bit0 = keyframe) and the u32 CRC32C of the stream's
// reference floats (0 on a keyframe); delta+<base> follows with the base
// payload of the diff, topk with u32 count, u32 k, a ceil(count/8)-byte
// index bitmap and k binary16 values.
//
// Stateful encodings (delta, topk) chain per (sender -> receiver) stream:
// the first frame is a keyframe (delta against zeros / k = dim), every
// later frame carries a CRC of the reference model so a desynchronized
// stream is detected instead of silently decoding garbage. Encode and
// decode advance the reference identically, so a sender-side round-trip
// is bit-identical to the receiver's decode — that is what keeps the
// simulator's accounting and `fedms_node --verify` exact under lossy
// encodings.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace fedms::fl {

// Numeric tags stamped into the frame header's format byte; the frame
// codec uses these values directly. kWireFormatRaw is the frame codec's
// own u64-count float32 layout; every other tag is a payload below.
inline constexpr std::uint8_t kWireFormatRaw = 0;
inline constexpr std::uint8_t kWireFormatFp16 = 1;
inline constexpr std::uint8_t kWireFormatInt8 = 2;
inline constexpr std::uint8_t kWireFormatTopK = 3;
inline constexpr std::uint8_t kWireFormatDeltaF32 = 4;
inline constexpr std::uint8_t kWireFormatDeltaFp16 = 5;
inline constexpr std::uint8_t kWireFormatDeltaInt8 = 6;
inline constexpr std::uint8_t kWireFormatCount = 7;

// The int8 encoder's block size. Model deltas have spiky per-block
// ranges; at 64 the scales cost 6% of the payload for a visibly tighter
// error bound than 256 gives. The decoder reads the block size from the
// payload, so it accepts any nonzero one.
inline constexpr std::size_t kWireInt8Block = 64;

struct WireEncodingSpec {
  std::string base = "f32";  // f32 | fp16 | int8
  bool delta = false;
  double topk = 0.0;  // 0 = off, else fraction in (0,1]

  bool is_f32() const { return !delta && topk == 0.0 && base == "f32"; }
  // Stateful encodings chain a per-stream reference model.
  bool stateful() const { return delta || topk > 0.0; }
  std::uint8_t format_tag() const;
  // Canonical spec string; parse(to_string()) round-trips. Always short
  // enough to ride in a kHello frame's 18 reserved header bytes.
  std::string to_string() const;
};

// Parses `text` into *spec. Returns "" on success, a one-line error
// otherwise. `spec` may be nullptr to validate only.
std::string parse_wire_encoding(const std::string& text,
                                WireEncodingSpec* spec);
// "" = valid spec.
std::string check_wire_encoding(const std::string& text);
// The parsed spec of `text`, which must be valid (FedMsConfig::check
// vets it first); contract-aborts otherwise.
WireEncodingSpec wire_encoding_spec(const std::string& text);

// The structural check of one encoded payload (every tag but
// kWireFormatRaw): 64-bit length arithmetic against the payload's own
// count, block and k fields, the stateful flags, and the top-k bitmap's
// popcount and padding. It never decodes and allocates nothing. Returns ""
// when the payload is well formed, else a one-line error. A payload that
// passes decodes without further bounds checks; a stateful one can still
// fail against its stream's reference (WireChannel::decode).
std::string check_wire_payload(std::uint8_t format_tag,
                               const std::uint8_t* data, std::size_t size);

// Decodes a stateless (fp16 / int8) payload into `out`, sized to the
// payload's count only after check_wire_payload passed. Returns "" or the
// one-line error, leaving `out` untouched. The frame codec and
// WireChannel::decode both decode stateless payloads through this.
std::string decode_stateless_payload(std::uint8_t format_tag,
                                     const std::uint8_t* data,
                                     std::size_t size,
                                     std::vector<float>& out);

// IEEE-754 binary16 conversions (round-to-nearest-even; overflow saturates
// to ±inf, subnormals handled).
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

struct WireEncodeResult {
  std::vector<std::uint8_t> bytes;  // exact bytes shipped in the frame
  std::vector<float> decoded;       // what the receiver reconstructs
};

// One direction of one (sender -> receiver) stream.
class WireChannel {
 public:
  explicit WireChannel(WireEncodingSpec spec) : spec_(std::move(spec)) {}

  const WireEncodingSpec& spec() const { return spec_; }

  // Encodes `values` under the channel's spec and advances the reference
  // to the receiver-visible reconstruction.
  WireEncodeResult encode(const std::vector<float>& values);

  // Decodes one wire payload (any format tag — frames are
  // self-describing) and advances the reference. Throws
  // std::runtime_error on malformed bytes or a reference mismatch.
  std::vector<float> decode(std::uint8_t format_tag,
                            const std::uint8_t* data, std::size_t size);
  std::vector<float> decode(std::uint8_t format_tag,
                            const std::vector<std::uint8_t>& bytes);

  // Low-level top-k payload builder with an explicit k (the channel's
  // encode derives k from the spec fraction); exposed for edge-case
  // tests (k = 0, k = dim).
  static std::vector<std::uint8_t> encode_topk_payload(
      const std::vector<float>& values, const std::vector<float>& reference,
      std::size_t k, bool keyframe);
  static std::size_t topk_count(double fraction, std::size_t dim);

 private:
  WireEncodingSpec spec_;
  std::vector<float> reference_;
  bool have_reference_ = false;
};

// Channels keyed by remote node, one book per direction (a node's upload
// stream to PS p and its broadcast stream from PS p are distinct chains).
class WireChannelBook {
 public:
  explicit WireChannelBook(WireEncodingSpec default_spec)
      : default_spec_(std::move(default_spec)) {}

  WireChannel& channel(const net::NodeId& remote);
  // For per-peer negotiated specs (the PS side, from kHello announces).
  WireChannel& channel(const net::NodeId& remote,
                       const WireEncodingSpec& spec);

 private:
  WireEncodingSpec default_spec_;
  std::map<net::NodeId, WireChannel> channels_;
};

// Sender-side round-trip of `values` through `channel` into `message`:
// the payload becomes what the receiver decodes, and encoded_bytes and
// wire_format bill what goes on the wire. `keep_bytes` also stores the
// encoded bytes in message.encoded, which a real transport frames;
// simulated links only need the size. `values` may alias
// message.payload.
void encode_payload(net::Message& message, WireChannel& channel,
                    const std::vector<float>& values, bool keep_bytes);

// Decodes a transport message whose stateful payload was left undecoded
// by the frame codec (payload empty, encoded bytes present): runs the
// bytes through `book`'s channel for the sender and materializes
// message.payload. No-op for already-decoded messages.
void finish_wire_payload(net::Message& message, WireChannelBook& book);

}  // namespace fedms::fl
