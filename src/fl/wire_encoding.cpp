#include "fl/wire_encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/contracts.h"
#include "core/crc32c.h"

namespace fedms::fl {

namespace {

// The stateful prefix: flags byte + u32 reference CRC (layouts in the
// header).
constexpr std::size_t kStatefulHeaderBytes = 5;
constexpr std::uint8_t kFlagKeyframe = 0x01;

enum class Base { kF32, kFp16, kInt8 };

Base base_of_tag(std::uint8_t tag) {
  switch (tag) {
    case kWireFormatFp16:
    case kWireFormatDeltaFp16:
      return Base::kFp16;
    case kWireFormatInt8:
    case kWireFormatDeltaInt8:
      return Base::kInt8;
    default:
      return Base::kF32;
  }
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = std::uint8_t(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* data) {
  return std::uint32_t(data[0]) | (std::uint32_t(data[1]) << 8) |
         (std::uint32_t(data[2]) << 16) | (std::uint32_t(data[3]) << 24);
}

void put_f32(std::uint8_t* out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(out, bits);
}

float get_f32(const std::uint8_t* data) {
  const std::uint32_t bits = get_u32(data);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

void put_half(std::uint8_t* out, float v) {
  const std::uint16_t h = float_to_half(v);
  out[0] = std::uint8_t(h & 0xff);
  out[1] = std::uint8_t(h >> 8);
}

float get_half(const std::uint8_t* data) {
  return half_to_float(
      std::uint16_t(std::uint16_t(data[0]) | (std::uint16_t(data[1]) << 8)));
}

std::uint64_t int8_payload_size(std::uint64_t count, std::uint64_t block) {
  const std::uint64_t blocks = (count + block - 1) / block;
  return 8 + 4 * blocks + count;
}

std::size_t base_size(Base base, std::size_t count) {
  switch (base) {
    case Base::kF32:
      return 4 + 4 * count;
    case Base::kFp16:
      return 4 + 2 * count;
    case Base::kInt8:
      return std::size_t(int8_payload_size(count, kWireInt8Block));
  }
  return 0;
}

// Writes the base payload of values[0, n) to `out`, which holds
// base_size(base, n) bytes.
void encode_base(Base base, const float* values, std::size_t n,
                 std::uint8_t* out) {
  put_u32(out, std::uint32_t(n));
  switch (base) {
    case Base::kF32:
      for (std::size_t i = 0; i < n; ++i) put_f32(out + 4 + 4 * i, values[i]);
      return;
    case Base::kFp16:
      for (std::size_t i = 0; i < n; ++i) put_half(out + 4 + 2 * i, values[i]);
      return;
    case Base::kInt8: {
      put_u32(out + 4, std::uint32_t(kWireInt8Block));
      std::uint8_t* p = out + 8;
      for (std::size_t begin = 0; begin < n; begin += kWireInt8Block) {
        const std::size_t end = std::min(begin + kWireInt8Block, n);
        // Non-finite values get the reserved -128 code (decoded as NaN)
        // and are excluded from the scale: an Inf must neither poison the
        // whole block's scale nor silently saturate into a finite value.
        float max_abs = 0.0f;
        for (std::size_t i = begin; i < end; ++i)
          if (std::isfinite(values[i]))
            max_abs = std::max(max_abs, std::abs(values[i]));
        const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
        put_f32(p, scale);
        p += 4;
        for (std::size_t i = begin; i < end; ++i) {
          int q = -128;
          if (std::isfinite(values[i]))
            q = std::clamp(int(std::lround(values[i] / scale)), -127, 127);
          *p++ = std::uint8_t(std::int8_t(q));
        }
      }
      return;
    }
  }
}

// Length arithmetic of one base payload: "" when `size` is exactly what
// its count (and block) fields announce.
std::string check_base(Base base, const std::uint8_t* data, std::size_t size) {
  if (size < 4) return "truncated wire payload";
  const std::uint64_t count = get_u32(data);
  std::uint64_t want = 4 + 4 * count;
  if (base == Base::kFp16) want = 4 + 2 * count;
  if (base == Base::kInt8) {
    if (size < 8) return "truncated int8 payload";
    const std::uint32_t block = get_u32(data + 4);
    if (block == 0) return "int8 block size is zero";
    want = int8_payload_size(count, block);
  }
  if (std::uint64_t(size) != want) return "wire payload length mismatch";
  return "";
}

// Decodes a base payload that passed check_base into `out`, which holds
// its count.
void decode_base(Base base, const std::uint8_t* data, float* out) {
  const std::size_t n = get_u32(data);
  switch (base) {
    case Base::kF32:
      for (std::size_t i = 0; i < n; ++i) out[i] = get_f32(data + 4 + 4 * i);
      return;
    case Base::kFp16:
      for (std::size_t i = 0; i < n; ++i) out[i] = get_half(data + 4 + 2 * i);
      return;
    case Base::kInt8: {
      const std::size_t block = get_u32(data + 4);
      const std::uint8_t* p = data + 8;
      for (std::size_t begin = 0; begin < n; begin += block) {
        const std::size_t end = std::min(begin + block, n);
        const float scale = get_f32(p);
        p += 4;
        for (std::size_t i = begin; i < end; ++i) {
          const std::int8_t q = std::int8_t(*p++);
          out[i] = q == -128 ? std::numeric_limits<float>::quiet_NaN()
                             : float(q) * scale;
        }
      }
      return;
    }
  }
}

std::string check_topk_body(const std::uint8_t* body, std::size_t size,
                            bool keyframe) {
  if (size < 8) return "truncated topk payload";
  const std::uint32_t count = get_u32(body);
  const std::uint32_t k = get_u32(body + 4);
  if (k > count) return "topk k exceeds coordinate count";
  if (keyframe && k != count) return "topk keyframe must carry k == count";
  const std::uint64_t bitmap_bytes = (std::uint64_t(count) + 7) / 8;
  if (std::uint64_t(size) != 8 + bitmap_bytes + 2 * std::uint64_t(k))
    return "topk payload length mismatch";
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

bool is_stateless_tag(std::uint8_t tag) {
  return tag == kWireFormatFp16 || tag == kWireFormatInt8;
}

}  // namespace

// ---- binary16 ----

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, 4);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent =
      std::int32_t((bits >> 23) & 0xffu) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7fffffu;

  if (((bits >> 23) & 0xffu) == 0xffu) {  // inf / NaN
    return std::uint16_t(sign | 0x7c00u | (mantissa ? 0x200u : 0u));
  }
  if (exponent >= 0x1f) {  // overflow -> inf
    return std::uint16_t(sign | 0x7c00u);
  }
  if (exponent <= 0) {  // subnormal or zero
    if (exponent < -10) return std::uint16_t(sign);
    mantissa |= 0x800000u;  // implicit leading 1
    const std::uint32_t shift = std::uint32_t(14 - exponent);
    // Round to nearest even.
    const std::uint32_t rounded =
        (mantissa + (1u << (shift - 1)) +
         ((mantissa >> shift) & 1u) - 1u) >>
        shift;
    return std::uint16_t(sign | rounded);
  }
  // Normal number: round mantissa from 23 to 10 bits, nearest-even.
  const std::uint32_t round_bit = 1u << 12;
  std::uint32_t half =
      sign | (std::uint32_t(exponent) << 10) | (mantissa >> 13);
  if ((mantissa & round_bit) &&
      ((mantissa & (round_bit - 1)) || (half & 1u)))
    ++half;  // may carry into the exponent, which is the correct behaviour
  return std::uint16_t(half);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = std::uint32_t(half & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1fu;
  std::uint32_t mantissa = half & 0x3ffu;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // ±0
    } else {
      // Subnormal half: renormalize.
      std::int32_t e = -1;
      do {
        mantissa <<= 1;
        ++e;
      } while (!(mantissa & 0x400u));
      mantissa &= 0x3ffu;
      bits = sign | (std::uint32_t(127 - 15 - e) << 23) | (mantissa << 13);
    }
  } else if (exponent == 0x1f) {
    bits = sign | 0x7f800000u | (mantissa << 13);  // inf / NaN
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, 4);
  return value;
}

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

std::string check_wire_payload(std::uint8_t format_tag,
                               const std::uint8_t* data, std::size_t size) {
  if (format_tag == kWireFormatRaw || format_tag >= kWireFormatCount)
    return "not an encoded wire format";
  if (is_stateless_tag(format_tag))
    return check_base(base_of_tag(format_tag), data, size);
  if (size < kStatefulHeaderBytes) return "truncated wire payload";
  const std::uint8_t flags = data[0];
  if ((flags & ~kFlagKeyframe) != 0) return "unknown wire payload flags";
  const bool keyframe = (flags & kFlagKeyframe) != 0;
  if (keyframe && get_u32(data + 1) != 0)
    return "keyframe with nonzero reference crc";
  const std::uint8_t* body = data + kStatefulHeaderBytes;
  const std::size_t body_size = size - kStatefulHeaderBytes;
  if (format_tag == kWireFormatTopK)
    return check_topk_body(body, body_size, keyframe);
  return check_base(base_of_tag(format_tag), body, body_size);
}

std::string decode_stateless_payload(std::uint8_t format_tag,
                                     const std::uint8_t* data,
                                     std::size_t size,
                                     std::vector<float>& out) {
  if (!is_stateless_tag(format_tag)) return "not a stateless wire format";
  if (std::string error = check_wire_payload(format_tag, data, size);
      !error.empty())
    return error;
  out.resize(get_u32(data));
  decode_base(base_of_tag(format_tag), data, out.data());
  return "";
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
  std::vector<std::uint8_t> out(kStatefulHeaderBytes + 8 + bitmap_bytes +
                                2 * k);
  out[0] = keyframe ? kFlagKeyframe : 0;
  put_u32(out.data() + 1, keyframe ? 0 : core::crc32c_floats(reference));
  std::uint8_t* body = out.data() + kStatefulHeaderBytes;
  put_u32(body, std::uint32_t(n));
  put_u32(body + 4, std::uint32_t(k));
  std::uint8_t* bitmap = body + 8;
  for (std::size_t i = 0; i < k; ++i)
    bitmap[order[i] / 8] |= std::uint8_t(1u << (order[i] % 8));
  // Values follow in index order, one per set bitmap bit.
  std::uint8_t* half_bytes = bitmap + bitmap_bytes;
  for (std::size_t i = 0; i < n; ++i)
    if ((bitmap[i / 8] >> (i % 8)) & 1u) {
      put_half(half_bytes, values[i]);
      half_bytes += 2;
    }
  return out;
}

WireEncodeResult WireChannel::encode(const std::vector<float>& values) {
  FEDMS_EXPECTS(!spec_.is_f32());
  const std::uint8_t tag = spec_.format_tag();
  const std::size_t n = values.size();
  WireEncodeResult result;
  const bool keyframe = !have_reference_ || reference_.size() != n;
  if (!spec_.stateful()) {  // stateless fp16 / int8: no reference chain
    result.bytes.resize(base_size(base_of_tag(tag), n));
    encode_base(base_of_tag(tag), values.data(), n, result.bytes.data());
  } else if (spec_.topk > 0.0) {
    const std::size_t k = keyframe ? n : topk_count(spec_.topk, n);
    result.bytes = encode_topk_payload(values, reference_, k, keyframe);
  } else {
    std::vector<float> diff;
    if (!keyframe) {
      diff.resize(n);
      for (std::size_t i = 0; i < n; ++i) diff[i] = values[i] - reference_[i];
    }
    const Base base = base_of_tag(tag);
    result.bytes.resize(kStatefulHeaderBytes + base_size(base, n));
    result.bytes[0] = keyframe ? kFlagKeyframe : 0;
    put_u32(result.bytes.data() + 1,
            keyframe ? 0 : core::crc32c_floats(reference_));
    encode_base(base, keyframe ? values.data() : diff.data(), n,
                result.bytes.data() + kStatefulHeaderBytes);
  }
  // Round-trip through our own decode: a stateful one advances the
  // reference exactly the way the receiver's channel will, keeping both
  // chains in lockstep.
  result.decoded = decode(tag, result.bytes);
  return result;
}

std::vector<float> WireChannel::decode(std::uint8_t format_tag,
                                       const std::vector<std::uint8_t>& bytes) {
  return decode(format_tag, bytes.data(), bytes.size());
}

std::vector<float> WireChannel::decode(std::uint8_t format_tag,
                                       const std::uint8_t* data,
                                       std::size_t size) {
  std::vector<float> decoded;
  if (is_stateless_tag(format_tag)) {
    if (const std::string error =
            decode_stateless_payload(format_tag, data, size, decoded);
        !error.empty())
      throw std::runtime_error("wire payload: " + error);
    return decoded;
  }
  if (const std::string error = check_wire_payload(format_tag, data, size);
      !error.empty())
    throw std::runtime_error("wire payload: " + error);
  const bool keyframe = (data[0] & kFlagKeyframe) != 0;
  if (!keyframe) {
    if (!have_reference_)
      throw std::runtime_error(
          "wire stream: non-keyframe frame before any keyframe");
    if (core::crc32c_floats(reference_) != get_u32(data + 1))
      throw std::runtime_error(
          "wire stream desynchronized (reference crc mismatch)");
  }
  const std::uint8_t* body = data + kStatefulHeaderBytes;
  const std::size_t count = get_u32(body);
  if (!keyframe && count != reference_.size())
    throw std::runtime_error(
        format_tag == kWireFormatTopK
            ? "wire stream: topk coordinate count does not match reference"
            : "wire stream: delta dimension does not match reference");

  if (format_tag == kWireFormatTopK) {
    decoded = keyframe ? std::vector<float>(count, 0.0f) : reference_;
    const std::uint8_t* bitmap = body + 8;
    const std::uint8_t* half_bytes = bitmap + (count + 7) / 8;
    for (std::size_t i = 0; i < count; ++i)
      if ((bitmap[i / 8] >> (i % 8)) & 1u) {
        decoded[i] = get_half(half_bytes);
        half_bytes += 2;
      }
  } else {
    decoded.resize(count);
    decode_base(base_of_tag(format_tag), body, decoded.data());
    if (!keyframe)
      for (std::size_t i = 0; i < count; ++i)
        decoded[i] = reference_[i] + decoded[i];
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
