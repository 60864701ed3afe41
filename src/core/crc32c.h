// CRC32C (Castagnoli), reflected polynomial 0x82F63B78: the checksum of
// the transport frame trailer, of the wire encodings' stream-reference
// stamps and of every model fingerprint printed across process
// boundaries. One table implementation for all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedms::core {

// `seed` allows incremental computation: crc32c(b, nb, crc32c(a, na)) is
// the CRC of a followed by b.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t seed = 0);
// CRC32C over a float vector's byte representation.
std::uint32_t crc32c_floats(const std::vector<float>& values);

}  // namespace fedms::core
