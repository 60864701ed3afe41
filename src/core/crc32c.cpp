#include "core/crc32c.h"

#include <array>

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

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t seed) {
  const std::array<std::uint32_t, 256>& table = crc_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

std::uint32_t crc32c_floats(const std::vector<float>& values) {
  static_assert(sizeof(float) == 4);
  return crc32c(reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size() * sizeof(float));
}

}  // namespace fedms::core
