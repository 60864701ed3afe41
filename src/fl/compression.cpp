#include "fl/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/contracts.h"

namespace fedms::fl {

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(std::uint8_t(v & 0xff));
  out.push_back(std::uint8_t((v >> 8) & 0xff));
  out.push_back(std::uint8_t((v >> 16) & 0xff));
  out.push_back(std::uint8_t((v >> 24) & 0xff));
}

std::uint32_t read_u32(const std::vector<std::uint8_t>& bytes,
                       std::size_t offset) {
  if (offset + 4 > bytes.size())
    throw std::runtime_error("fedms: truncated codec buffer");
  return std::uint32_t(bytes[offset]) | (std::uint32_t(bytes[offset + 1]) << 8) |
         (std::uint32_t(bytes[offset + 2]) << 16) |
         (std::uint32_t(bytes[offset + 3]) << 24);
}

void append_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  append_u32(out, bits);
}

float read_f32(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  const std::uint32_t bits = read_u32(bytes, offset);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

}  // namespace

std::vector<float> PayloadCodec::roundtrip(
    const std::vector<float>& values) const {
  return decode(encode(values));
}

// ---- identity ----

std::vector<std::uint8_t> IdentityCodec::encode(
    const std::vector<float>& values) const {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 4 * values.size());
  append_u32(out, std::uint32_t(values.size()));
  for (const float v : values) append_f32(out, v);
  return out;
}

std::vector<float> IdentityCodec::decode(
    const std::vector<std::uint8_t>& bytes) const {
  const std::uint32_t n = read_u32(bytes, 0);
  if (bytes.size() != 4 + 4 * std::size_t(n))
    throw std::runtime_error("fedms: bad identity-codec buffer");
  std::vector<float> values(n);
  for (std::uint32_t i = 0; i < n; ++i) values[i] = read_f32(bytes, 4 + 4 * i);
  return values;
}

// ---- fp16 ----

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

std::vector<std::uint8_t> Fp16Codec::encode(
    const std::vector<float>& values) const {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 2 * values.size());
  append_u32(out, std::uint32_t(values.size()));
  for (const float v : values) {
    const std::uint16_t h = float_to_half(v);
    out.push_back(std::uint8_t(h & 0xff));
    out.push_back(std::uint8_t(h >> 8));
  }
  return out;
}

std::vector<float> Fp16Codec::decode(
    const std::vector<std::uint8_t>& bytes) const {
  const std::uint32_t n = read_u32(bytes, 0);
  if (bytes.size() != 4 + 2 * std::size_t(n))
    throw std::runtime_error("fedms: bad fp16-codec buffer");
  std::vector<float> values(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t h = std::uint16_t(
        std::uint16_t(bytes[4 + 2 * i]) |
        (std::uint16_t(bytes[4 + 2 * i + 1]) << 8));
    values[i] = half_to_float(h);
  }
  return values;
}

// ---- int8 ----

Int8Codec::Int8Codec(std::size_t block_size) : block_size_(block_size) {
  FEDMS_EXPECTS(block_size > 0);
}

std::vector<std::uint8_t> Int8Codec::encode(
    const std::vector<float>& values) const {
  std::vector<std::uint8_t> out;
  const std::size_t blocks =
      values.empty() ? 0 : (values.size() + block_size_ - 1) / block_size_;
  out.reserve(8 + blocks * (4 + block_size_));
  append_u32(out, std::uint32_t(values.size()));
  append_u32(out, std::uint32_t(block_size_));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * block_size_;
    const std::size_t end = std::min(begin + block_size_, values.size());
    // Non-finite values get the reserved -128 code (decoded as NaN) and
    // are excluded from the scale: an Inf must neither poison the whole
    // block's scale nor silently saturate into a finite value.
    float max_abs = 0.0f;
    for (std::size_t i = begin; i < end; ++i)
      if (std::isfinite(values[i]))
        max_abs = std::max(max_abs, std::abs(values[i]));
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    append_f32(out, scale);
    for (std::size_t i = begin; i < end; ++i) {
      if (!std::isfinite(values[i])) {
        out.push_back(std::uint8_t(std::int8_t(-128)));
        continue;
      }
      const int q = int(std::lround(values[i] / scale));
      out.push_back(std::uint8_t(std::int8_t(std::clamp(q, -127, 127))));
    }
  }
  return out;
}

std::vector<float> Int8Codec::decode(
    const std::vector<std::uint8_t>& bytes) const {
  const std::uint32_t n = read_u32(bytes, 0);
  const std::uint32_t block = read_u32(bytes, 4);
  if (block == 0) throw std::runtime_error("fedms: bad int8 block size");
  std::vector<float> values(n);
  std::size_t offset = 8;
  for (std::size_t begin = 0; begin < n; begin += block) {
    const std::size_t end = std::min<std::size_t>(begin + block, n);
    const float scale = read_f32(bytes, offset);
    offset += 4;
    if (offset + (end - begin) > bytes.size())
      throw std::runtime_error("fedms: truncated int8 buffer");
    for (std::size_t i = begin; i < end; ++i) {
      const std::int8_t q = std::int8_t(bytes[offset++]);
      values[i] = q == -128 ? std::numeric_limits<float>::quiet_NaN()
                            : float(q) * scale;
    }
  }
  if (offset != bytes.size())
    throw std::runtime_error("fedms: trailing int8 bytes");
  return values;
}

}  // namespace fedms::fl
