// CRC32C (Castagnoli), reflected polynomial 0x82F63B78: the checksum of
// the transport frame trailer, of the wire encodings' stream-reference
// stamps and of every model fingerprint printed across process
// boundaries. crc32c() picks its implementation once, at first call: the
// SSE4.2 crc32 instruction on x86-64 hosts that have it, else the
// byte-at-a-time table, which stays as crc32c_reference — the fallback and
// the tests' oracle. Both return the same value for every input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedms::core {

// `seed` allows incremental computation: crc32c(b, nb, crc32c(a, na)) is
// the CRC of a followed by b.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t seed = 0);
// The table implementation crc32c() falls back to.
std::uint32_t crc32c_reference(const std::uint8_t* data, std::size_t size,
                               std::uint32_t seed = 0);
// CRC32C over a float vector's byte representation.
std::uint32_t crc32c_floats(const std::vector<float>& values);

}  // namespace fedms::core
