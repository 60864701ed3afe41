#include "core/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define FEDMS_CRC32C_SSE42 1
#endif

namespace fedms::core {

namespace {

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

#ifdef FEDMS_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes exactly this polynomial, reflected,
// so it folds eight bytes per step with the table's result. Only this
// function is compiled for SSE4.2; the dispatch below calls it on hosts
// that report the feature, and the rest of the build stays baseline x86-64.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = std::uint32_t(crc);
  for (; size > 0; ++data, --size) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}
#endif

using CrcFunction = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                      std::uint32_t);

CrcFunction select_crc32c() {
#ifdef FEDMS_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_reference;
}

}  // namespace

std::uint32_t crc32c_reference(const std::uint8_t* data, std::size_t size,
                               std::uint32_t seed) {
  const std::array<std::uint32_t, 256>& table = crc_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t seed) {
  static const CrcFunction dispatched = select_crc32c();
  return dispatched(data, size, seed);
}

std::uint32_t crc32c_floats(const std::vector<float>& values) {
  static_assert(sizeof(float) == 4);
  return crc32c(reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size() * sizeof(float));
}

}  // namespace fedms::core
