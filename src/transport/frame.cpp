#include "transport/frame.h"

#include <cstring>

#include "core/contracts.h"
#include "core/rng.h"
#include "fl/wire_encoding.h"

namespace fedms::transport {

namespace {

// Field offsets of the fixed header (see frame.h for the layout table).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffKind = 6;
constexpr std::size_t kOffFormat = 7;
constexpr std::size_t kOffRound = 8;
constexpr std::size_t kOffFromIndex = 16;
constexpr std::size_t kOffToIndex = 24;
constexpr std::size_t kOffPayloadLen = 32;
constexpr std::size_t kOffFromKind = 40;
constexpr std::size_t kOffToKind = 41;
constexpr std::size_t kOffReserved = 42;
constexpr std::size_t kReservedBytes = 18;
static_assert(kOffReserved + kReservedBytes == net::kFrameHeaderBytes,
              "header fields must exactly fill the 60-byte frame header");
static_assert(net::kFrameHeaderBytes + net::kFrameTrailerBytes ==
                  net::kMessageHeaderBytes,
              "frame overhead must equal the simulation's per-message "
              "header budget");

// Refuse absurd payload lengths before trusting them (a corrupted length
// field must not drive a multi-gigabyte allocation).
constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 31;  // 2 GiB

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = std::uint8_t(v);
  out[1] = std::uint8_t(v >> 8);
}
void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = std::uint8_t(v >> (8 * i));
}
void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = std::uint8_t(v >> (8 * i));
}
std::uint16_t get_u16(const std::uint8_t* in) {
  return std::uint16_t(in[0] | (std::uint16_t(in[1]) << 8));
}
std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[i]) << (8 * i);
  return v;
}

// Hello frames carry the announced wire-encoding spec in the reserved
// bytes: NUL-padded, spec-grammar characters only.
bool valid_hello_encoding_byte(std::uint8_t c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == ':' ||
         c == '+' || c == '.';
}

}  // namespace

const char* to_string(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "ok";
    case FrameError::kTruncated:
      return "truncated";
    case FrameError::kBadMagic:
      return "bad-magic";
    case FrameError::kBadVersion:
      return "bad-version";
    case FrameError::kBadKind:
      return "bad-kind";
    case FrameError::kBadFormat:
      return "bad-format";
    case FrameError::kBadNodeKind:
      return "bad-node-kind";
    case FrameError::kBadReserved:
      return "bad-reserved";
    case FrameError::kLengthMismatch:
      return "length-mismatch";
    case FrameError::kCrcMismatch:
      return "crc-mismatch";
    case FrameError::kBadPayload:
      return "bad-payload";
  }
  return "?";
}

FrameCodec::FrameCodec(const std::string& session) {
  FEDMS_EXPECTS(session == "none");
}

std::size_t FrameCodec::framed_size(const net::Message& message) {
  // The accounting definition and the frame layout are one and the same;
  // encode() ENSURES this equality on every frame it emits.
  return net::wire_size(message);
}

std::vector<std::uint8_t> FrameCodec::encode(
    const net::Message& message) const {
  std::vector<std::uint8_t> out;
  encode_to(message, out);
  return out;
}

void FrameCodec::encode_to(const net::Message& message,
                           std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  const bool compressed = message.encoded_bytes > 0;

  // Encoded messages carry their wire bytes, shipped verbatim: stateful
  // encodings cannot be re-derived here.
  std::uint8_t format = fl::kWireFormatRaw;
  if (compressed) {
    FEDMS_EXPECTS(message.wire_format != fl::kWireFormatRaw &&
                  message.wire_format < fl::kWireFormatCount);
    FEDMS_EXPECTS(message.encoded.size() == message.encoded_bytes);
    format = message.wire_format;
  }

  const std::uint64_t payload_len =
      compressed ? std::uint64_t(message.encoded_bytes)
                 : std::uint64_t(net::payload_bytes(message));
  out.resize(start + net::kFrameHeaderBytes + std::size_t(payload_len) +
             net::kFrameTrailerBytes);
  std::uint8_t* frame = out.data() + start;

  std::memset(frame, 0, net::kFrameHeaderBytes);
  put_u32(frame + kOffMagic, kFrameMagic);
  put_u16(frame + kOffVersion, kProtocolVersion);
  frame[kOffKind] = static_cast<std::uint8_t>(message.kind);
  frame[kOffFormat] = format;
  put_u64(frame + kOffRound, message.round);
  put_u64(frame + kOffFromIndex, message.from.index);
  put_u64(frame + kOffToIndex, message.to.index);
  put_u64(frame + kOffPayloadLen, payload_len);
  frame[kOffFromKind] =
      message.from.kind == net::NodeKind::kServer ? 1 : 0;
  frame[kOffToKind] = message.to.kind == net::NodeKind::kServer ? 1 : 0;
  if (message.kind == net::MessageKind::kHello &&
      !message.hello_encoding.empty()) {
    FEDMS_EXPECTS(message.hello_encoding.size() <= kReservedBytes);
    std::memcpy(frame + kOffReserved, message.hello_encoding.data(),
                message.hello_encoding.size());
  }

  std::uint8_t* payload = frame + net::kFrameHeaderBytes;
  if (compressed) {
    std::memcpy(payload, message.encoded.data(), message.encoded.size());
  } else {
    put_u64(payload, message.payload.size());
    if (!message.payload.empty())
      std::memcpy(payload + 8, message.payload.data(),
                  message.payload.size() * sizeof(float));
  }

  const std::size_t body = net::kFrameHeaderBytes + std::size_t(payload_len);
  put_u32(frame + body, crc32c(frame, body));

  // The drift guard: real bytes == simulated accounting, always.
  FEDMS_ENSURES(out.size() - start == net::wire_size(message));
}

std::optional<std::size_t> FrameCodec::frame_size(const std::uint8_t* data,
                                                  std::size_t size,
                                                  FrameError* error) {
  if (error) *error = FrameError::kNone;
  if (size < net::kFrameHeaderBytes) return std::nullopt;
  if (get_u32(data + kOffMagic) != kFrameMagic) {
    if (error) *error = FrameError::kBadMagic;
    return std::nullopt;
  }
  if (get_u16(data + kOffVersion) != kProtocolVersion) {
    if (error) *error = FrameError::kBadVersion;
    return std::nullopt;
  }
  const std::uint64_t payload_len = get_u64(data + kOffPayloadLen);
  if (payload_len > kMaxFramePayloadBytes) {
    if (error) *error = FrameError::kLengthMismatch;
    return std::nullopt;
  }
  return net::kFrameHeaderBytes + std::size_t(payload_len) +
         net::kFrameTrailerBytes;
}

FrameCodec::DecodeResult FrameCodec::decode(
    const std::vector<std::uint8_t>& buffer) const {
  return decode(buffer.data(), buffer.size());
}

FrameCodec::DecodeResult FrameCodec::decode(const std::uint8_t* data,
                                            std::size_t size) const {
  DecodeResult result;
  auto fail = [&result](FrameError error) -> DecodeResult& {
    result.error = error;
    return result;
  };

  FrameError header_error = FrameError::kNone;
  const std::optional<std::size_t> total =
      frame_size(data, size, &header_error);
  if (header_error != FrameError::kNone) return fail(header_error);
  if (!total.has_value() || size < *total) return fail(FrameError::kTruncated);
  if (size > *total) return fail(FrameError::kLengthMismatch);

  const std::uint8_t kind = data[kOffKind];
  if (kind >= net::kMessageKindCount) return fail(FrameError::kBadKind);
  const std::uint8_t format = data[kOffFormat];
  if (format >= fl::kWireFormatCount) return fail(FrameError::kBadFormat);
  const std::uint8_t from_kind = data[kOffFromKind];
  const std::uint8_t to_kind = data[kOffToKind];
  if (from_kind > 1 || to_kind > 1) return fail(FrameError::kBadNodeKind);
  std::string hello_encoding;
  if (kind == std::uint8_t(net::MessageKind::kHello)) {
    // Hello frames announce the peer's wire encoding in the reserved
    // bytes: spec characters, then NUL padding to the end.
    std::size_t i = 0;
    while (i < kReservedBytes && data[kOffReserved + i] != 0) {
      if (!valid_hello_encoding_byte(data[kOffReserved + i]))
        return fail(FrameError::kBadReserved);
      ++i;
    }
    hello_encoding.assign(
        reinterpret_cast<const char*>(data + kOffReserved), i);
    for (; i < kReservedBytes; ++i)
      if (data[kOffReserved + i] != 0) return fail(FrameError::kBadReserved);
  } else {
    for (std::size_t i = 0; i < kReservedBytes; ++i)
      if (data[kOffReserved + i] != 0) return fail(FrameError::kBadReserved);
  }

  const std::size_t payload_len =
      *total - net::kFrameHeaderBytes - net::kFrameTrailerBytes;
  const std::size_t body = net::kFrameHeaderBytes + payload_len;
  if (crc32c(data, body) != get_u32(data + body))
    return fail(FrameError::kCrcMismatch);

  net::Message& message = result.message;
  message.kind = static_cast<net::MessageKind>(kind);
  message.round = get_u64(data + kOffRound);
  message.from.kind =
      from_kind == 1 ? net::NodeKind::kServer : net::NodeKind::kClient;
  message.from.index = std::size_t(get_u64(data + kOffFromIndex));
  message.to.kind =
      to_kind == 1 ? net::NodeKind::kServer : net::NodeKind::kClient;
  message.to.index = std::size_t(get_u64(data + kOffToIndex));
  message.hello_encoding = std::move(hello_encoding);

  const std::uint8_t* payload = data + net::kFrameHeaderBytes;
  if (format == fl::kWireFormatRaw) {
    if (payload_len < 8) return fail(FrameError::kLengthMismatch);
    const std::uint64_t count = get_u64(payload);
    if ((payload_len - 8) / sizeof(float) != count ||
        (payload_len - 8) % sizeof(float) != 0)
      return fail(FrameError::kLengthMismatch);
    message.payload.resize(std::size_t(count));
    if (count > 0)
      std::memcpy(message.payload.data(), payload + 8,
                  std::size_t(count) * sizeof(float));
    return result;
  }
  if (payload_len == 0) return fail(FrameError::kLengthMismatch);
  if (format == fl::kWireFormatFp16 || format == fl::kWireFormatInt8) {
    // Stateless quantized payload: self-describing, decoded here.
    if (!fl::decode_stateless_payload(format, payload, payload_len,
                                      message.payload)
             .empty() ||
        message.payload.empty())
      return fail(FrameError::kBadPayload);
  } else if (!fl::check_wire_payload(format, payload, payload_len).empty()) {
    // Stateful (top-k / delta): checked here, decoded by the receiver's
    // per-stream fl::WireChannel (fl::finish_wire_payload).
    return fail(FrameError::kBadPayload);
  }
  message.encoded.assign(payload, payload + payload_len);
  message.encoded_bytes = payload_len;
  message.wire_format = format;
  return result;
}

bool is_control(net::MessageKind kind) {
  switch (kind) {
    case net::MessageKind::kModelUpload:
    case net::MessageKind::kModelBroadcast:
      return false;
    case net::MessageKind::kRetryRequest:
    case net::MessageKind::kHello:
    case net::MessageKind::kRoundSync:
      return true;
  }
  return true;
}

void inject_corruption(net::MessageKind kind, double rate, core::Rng& rng,
                       std::vector<std::uint8_t>& frame) {
  if (rate <= 0.0 || is_control(kind) ||
      frame.size() <= net::kFrameHeaderBytes + net::kFrameTrailerBytes ||
      !rng.bernoulli(rate))
    return;
  const std::size_t payload_len =
      frame.size() - net::kFrameHeaderBytes - net::kFrameTrailerBytes;
  const std::uint64_t bit = rng.uniform_index(payload_len * 8);
  frame[net::kFrameHeaderBytes + std::size_t(bit / 8)] ^=
      std::uint8_t(1u << (bit % 8));
}

}  // namespace fedms::transport
