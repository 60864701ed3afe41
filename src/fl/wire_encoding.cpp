#include "fl/wire_encoding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/contracts.h"

namespace fedms::fl {

namespace {

// Stateful payload layout (kTopK / kDelta*):
//   [0]    flags: bit0 = keyframe (delta against zeros / k == count)
//   [1..4] CRC32C of the stream's reference floats (0 on a keyframe)
//   [5..]  body — delta: base-codec buffer of the diff
//          topk: u32 count, u32 k, bitmap ceil(count/8), k fp16 values
constexpr std::size_t kStatefulHeaderBytes = 5;
constexpr std::uint8_t kFlagKeyframe = 0x01;

// CRC32C (Castagnoli), reflected — same polynomial as the frame trailer,
// reimplemented here because fl sits below transport in the layer map.
std::uint32_t crc32c_bytes(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xffu];
  return crc ^ 0xffffffffu;
}

std::uint32_t reference_crc(const std::vector<float>& reference) {
  return crc32c_bytes(reinterpret_cast<const std::uint8_t*>(reference.data()),
                      reference.size() * sizeof(float));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(std::uint8_t(v & 0xff));
  out.push_back(std::uint8_t((v >> 8) & 0xff));
  out.push_back(std::uint8_t((v >> 16) & 0xff));
  out.push_back(std::uint8_t((v >> 24) & 0xff));
}

std::uint32_t get_u32(const std::uint8_t* data) {
  return std::uint32_t(data[0]) | (std::uint32_t(data[1]) << 8) |
         (std::uint32_t(data[2]) << 16) | (std::uint32_t(data[3]) << 24);
}

PayloadCodecPtr make_base_codec(const std::string& base) {
  if (base == "f32") return std::make_unique<IdentityCodec>();
  if (base == "fp16") return std::make_unique<Fp16Codec>();
  if (base == "int8") return std::make_unique<Int8Codec>(kWireInt8Block);
  FEDMS_EXPECTS(!"unknown wire-encoding base");
  return nullptr;
}

PayloadCodecPtr base_codec_for_tag(std::uint8_t tag) {
  switch (tag) {
    case kWireFormatFp16:
    case kWireFormatDeltaFp16:
      return std::make_unique<Fp16Codec>();
    case kWireFormatInt8:
    case kWireFormatDeltaInt8:
      return std::make_unique<Int8Codec>(kWireInt8Block);
    case kWireFormatDeltaF32:
      return std::make_unique<IdentityCodec>();
    default:
      return nullptr;
  }
}

std::string validate_topk_body(const std::uint8_t* body, std::size_t size,
                               bool keyframe) {
  if (size < 8) return "truncated topk payload";
  const std::uint32_t count = get_u32(body);
  const std::uint32_t k = get_u32(body + 4);
  if (k > count) return "topk k exceeds coordinate count";
  if (keyframe && k != count) return "topk keyframe must carry k == count";
  const std::size_t bitmap_bytes = (std::size_t(count) + 7) / 8;
  const std::size_t want = 8 + bitmap_bytes + 2 * std::size_t(k);
  if (size != want) return "topk payload length mismatch";
  const std::uint8_t* bitmap = body + 8;
  std::size_t set = 0;
  for (std::size_t i = 0; i < bitmap_bytes; ++i)
    set += std::size_t(std::popcount(unsigned(bitmap[i])));
  if (set != k) return "topk index bitmap popcount does not match k";
  if (count % 8 != 0 && bitmap_bytes > 0 &&
      (bitmap[bitmap_bytes - 1] >> (count % 8)) != 0)
    return "topk index bitmap has padding bits set";
  return "";
}

}  // namespace

std::uint8_t WireEncodingSpec::format_tag() const {
  if (topk > 0.0) return kWireFormatTopK;
  if (delta) {
    if (base == "fp16") return kWireFormatDeltaFp16;
    if (base == "int8") return kWireFormatDeltaInt8;
    return kWireFormatDeltaF32;
  }
  if (base == "fp16") return kWireFormatFp16;
  if (base == "int8") return kWireFormatInt8;
  return kWireFormatRaw;
}

std::string WireEncodingSpec::to_string() const {
  if (topk > 0.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "topk:%.6g", topk);
    return buffer;
  }
  return delta ? "delta+" + base : base;
}

std::string parse_wire_encoding(const std::string& text,
                                WireEncodingSpec* spec) {
  WireEncodingSpec parsed;
  if (text.empty()) return "empty wire-encoding spec";
  if (text.rfind("topk:", 0) == 0) {
    const std::string frac = text.substr(5);
    char* end = nullptr;
    const double value = std::strtod(frac.c_str(), &end);
    if (frac.empty() || end == nullptr || *end != '\0' ||
        !(value > 0.0 && value <= 1.0))
      return "topk fraction must be in (0, 1], got \"" + frac + "\"";
    parsed.topk = value;
    parsed.base = "f32";
  } else {
    std::string base = text;
    if (base.rfind("delta+", 0) == 0) {
      parsed.delta = true;
      base = base.substr(6);
    }
    if (base != "f32" && base != "fp16" && base != "int8")
      return "unknown wire encoding \"" + text +
             "\" (want f32, fp16, int8, delta+<base>, or topk:<frac>)";
    parsed.base = base;
  }
  if (spec != nullptr) *spec = parsed;
  return "";
}

std::string check_wire_encoding(const std::string& text) {
  return parse_wire_encoding(text, nullptr);
}

std::string validate_stateful_payload(std::uint8_t format_tag,
                                      const std::uint8_t* data,
                                      std::size_t size) {
  if (format_tag != kWireFormatTopK && format_tag != kWireFormatDeltaF32 &&
      format_tag != kWireFormatDeltaFp16 && format_tag != kWireFormatDeltaInt8)
    return "not a stateful wire format";
  if (size < kStatefulHeaderBytes) return "truncated wire payload";
  const std::uint8_t flags = data[0];
  if ((flags & ~kFlagKeyframe) != 0) return "unknown wire payload flags";
  const bool keyframe = (flags & kFlagKeyframe) != 0;
  if (keyframe && get_u32(data + 1) != 0)
    return "keyframe with nonzero reference crc";
  const std::uint8_t* body = data + kStatefulHeaderBytes;
  const std::size_t body_size = size - kStatefulHeaderBytes;
  if (format_tag == kWireFormatTopK)
    return validate_topk_body(body, body_size, keyframe);
  const PayloadCodecPtr codec = base_codec_for_tag(format_tag);
  try {
    (void)codec->decode(std::vector<std::uint8_t>(body, body + body_size));
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

WireChannel::WireChannel(WireEncodingSpec spec) : spec_(std::move(spec)) {
  if (spec_.topk == 0.0 && spec_.base != "f32")
    base_codec_ = make_base_codec(spec_.base);
  else if (spec_.delta)
    base_codec_ = make_base_codec(spec_.base);
}

std::size_t WireChannel::topk_count(double fraction, std::size_t dim) {
  if (dim == 0) return 0;
  const auto k = std::size_t(std::ceil(fraction * double(dim)));
  return std::clamp<std::size_t>(k, 1, dim);
}

std::vector<std::uint8_t> WireChannel::encode_topk_payload(
    const std::vector<float>& values, const std::vector<float>& reference,
    std::size_t k, bool keyframe) {
  FEDMS_EXPECTS(k <= values.size());
  FEDMS_EXPECTS(keyframe || reference.size() == values.size());
  const std::size_t n = values.size();
  const std::size_t bitmap_bytes = (n + 7) / 8;

  // Largest |change| wins; ties break toward the lower index so the
  // selection is a pure function of (values, reference).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!keyframe && k < n) {
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const float da = std::abs(values[a] - reference[a]);
                const float db = std::abs(values[b] - reference[b]);
                // NaN changes sort first: a poisoned coordinate must be
                // shipped, not silently parked behind finite ones.
                const bool na = std::isnan(da), nb = std::isnan(db);
                if (na != nb) return na;
                if (da != db) return da > db;
                return a < b;
              });
  }
  std::vector<bool> selected(n, false);
  for (std::size_t i = 0; i < k; ++i) selected[order[i]] = true;

  std::vector<std::uint8_t> out;
  out.reserve(kStatefulHeaderBytes + 8 + bitmap_bytes + 2 * k);
  out.push_back(keyframe ? kFlagKeyframe : 0);
  append_u32(out, keyframe ? 0 : reference_crc(reference));
  append_u32(out, std::uint32_t(n));
  append_u32(out, std::uint32_t(k));
  out.resize(out.size() + bitmap_bytes, 0);
  std::uint8_t* bitmap = out.data() + out.size() - bitmap_bytes;
  for (std::size_t i = 0; i < n; ++i)
    if (selected[i]) bitmap[i / 8] |= std::uint8_t(1u << (i % 8));
  for (std::size_t i = 0; i < n; ++i) {
    if (!selected[i]) continue;
    const std::uint16_t h = float_to_half(values[i]);
    out.push_back(std::uint8_t(h & 0xff));
    out.push_back(std::uint8_t(h >> 8));
  }
  return out;
}

WireEncodeResult WireChannel::encode(const std::vector<float>& values) {
  FEDMS_EXPECTS(!spec_.is_f32());
  WireEncodeResult result;
  if (!spec_.stateful()) {  // stateless fp16 / int8: no reference chain
    result.bytes = base_codec_->encode(values);
    result.decoded = base_codec_->decode(result.bytes);
    return result;
  }
  const bool keyframe =
      !have_reference_ || reference_.size() != values.size();
  if (spec_.topk > 0.0) {
    const std::size_t k =
        keyframe ? values.size() : topk_count(spec_.topk, values.size());
    result.bytes = encode_topk_payload(values, reference_, k, keyframe);
  } else {
    std::vector<float> diff;
    if (keyframe) {
      diff = values;
    } else {
      diff.resize(values.size());
      for (std::size_t i = 0; i < values.size(); ++i)
        diff[i] = values[i] - reference_[i];
    }
    result.bytes.push_back(keyframe ? kFlagKeyframe : 0);
    append_u32(result.bytes, keyframe ? 0 : reference_crc(reference_));
    const std::vector<std::uint8_t> body = base_codec_->encode(diff);
    result.bytes.insert(result.bytes.end(), body.begin(), body.end());
  }
  // Round-trip through our own decode: it advances the reference exactly
  // the way the receiver's channel will, keeping both chains in lockstep.
  result.decoded = decode(spec_.format_tag(), result.bytes);
  return result;
}

std::vector<float> WireChannel::decode(std::uint8_t format_tag,
                                       const std::vector<std::uint8_t>& bytes) {
  return decode(format_tag, bytes.data(), bytes.size());
}

std::vector<float> WireChannel::decode(std::uint8_t format_tag,
                                       const std::uint8_t* data,
                                       std::size_t size) {
  if (format_tag == kWireFormatFp16 || format_tag == kWireFormatInt8) {
    const PayloadCodecPtr codec = base_codec_for_tag(format_tag);
    return codec->decode(std::vector<std::uint8_t>(data, data + size));
  }
  if (const std::string error =
          validate_stateful_payload(format_tag, data, size);
      !error.empty())
    throw std::runtime_error("wire payload: " + error);
  const bool keyframe = (data[0] & kFlagKeyframe) != 0;
  if (!keyframe) {
    if (!have_reference_)
      throw std::runtime_error(
          "wire stream: non-keyframe frame before any keyframe");
    if (reference_crc(reference_) != get_u32(data + 1))
      throw std::runtime_error(
          "wire stream desynchronized (reference crc mismatch)");
  }
  const std::uint8_t* body = data + kStatefulHeaderBytes;
  const std::size_t body_size = size - kStatefulHeaderBytes;

  std::vector<float> decoded;
  if (format_tag == kWireFormatTopK) {
    const std::uint32_t count = get_u32(body);
    const std::uint32_t k = get_u32(body + 4);
    if (!keyframe && std::size_t(count) != reference_.size())
      throw std::runtime_error(
          "wire stream: topk coordinate count does not match reference");
    decoded = keyframe ? std::vector<float>(count, 0.0f) : reference_;
    const std::uint8_t* bitmap = body + 8;
    const std::uint8_t* half_bytes = bitmap + (std::size_t(count) + 7) / 8;
    std::size_t next_value = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if ((bitmap[i / 8] >> (i % 8) & 1u) == 0) continue;
      const std::uint16_t h = std::uint16_t(
          std::uint16_t(half_bytes[2 * next_value]) |
          (std::uint16_t(half_bytes[2 * next_value + 1]) << 8));
      decoded[i] = half_to_float(h);
      ++next_value;
    }
    FEDMS_ASSERT(next_value == k);
  } else {
    const PayloadCodecPtr codec = base_codec_for_tag(format_tag);
    const std::vector<float> diff =
        codec->decode(std::vector<std::uint8_t>(body, body + body_size));
    if (keyframe) {
      decoded = diff;
    } else {
      if (diff.size() != reference_.size())
        throw std::runtime_error(
            "wire stream: delta dimension does not match reference");
      decoded.resize(diff.size());
      for (std::size_t i = 0; i < diff.size(); ++i)
        decoded[i] = reference_[i] + diff[i];
    }
  }
  reference_ = decoded;
  have_reference_ = true;
  return decoded;
}

WireChannel& WireChannelBook::channel(const net::NodeId& remote) {
  return channel(remote, default_spec_);
}

WireChannel& WireChannelBook::channel(const net::NodeId& remote,
                                      const WireEncodingSpec& spec) {
  const auto it = channels_.find(remote);
  if (it != channels_.end()) return it->second;
  return channels_.emplace(remote, WireChannel(spec)).first->second;
}

WireEncodingSpec wire_encoding_spec(const std::string& text) {
  WireEncodingSpec spec;
  FEDMS_EXPECTS(parse_wire_encoding(text, &spec).empty());
  return spec;
}

void encode_payload(net::Message& message, WireChannel& channel,
                    const std::vector<float>& values, bool keep_bytes) {
  WireEncodeResult wire = channel.encode(values);
  message.payload = std::move(wire.decoded);
  message.encoded_bytes = wire.bytes.size();
  message.wire_format = channel.spec().format_tag();
  if (keep_bytes) message.encoded = std::move(wire.bytes);
}

void finish_wire_payload(net::Message& message, WireChannelBook& book) {
  if (!message.payload.empty() || message.encoded_bytes == 0 ||
      message.encoded.empty())
    return;
  if (message.wire_format < kWireFormatTopK) return;
  message.payload = book.channel(message.from)
                        .decode(message.wire_format, message.encoded);
}

}  // namespace fedms::fl
