// CRC32C (Castagnoli polynomial, reflected). Checksums every SAADNET1 wire
// frame, every trace v2 block and every checkpoint section; picked over
// plain CRC32 because it is the de-facto storage checksum (iSCSI, ext4,
// LevelDB WAL) and has hardware support on most targets. On x86-64 CPUs
// with SSE4.2 crc32c() runs on the `crc32` instruction, chosen at run time
// (no build flag); everywhere else it runs the portable table code. Both
// paths return the same value for every input.
#pragma once

#include <cstdint>
#include <span>

namespace saad {

/// CRC32C of `data`, chained onto `crc` (pass the previous return value to
/// checksum a stream incrementally; 0 starts a fresh sum).
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

namespace detail {
/// The byte-at-a-time table implementation crc32c() falls back to; exposed
/// so tests can hold the hardware path to it.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t crc = 0);
}  // namespace detail

}  // namespace saad
