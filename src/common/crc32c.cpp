#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SAAD_CRC32C_SSE42 1
#endif

namespace saad {

namespace {

// Reflected CRC32C table for the Castagnoli polynomial 0x1EDC6F41
// (reversed: 0x82F63B78), built once at static-init time.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

#ifdef SAAD_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly this reflected CRC32C
// step, eight bytes at a time. Compiled for SSE4.2 on its own so the rest
// of the build keeps the baseline ISA; only called once the CPU says yes.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool cpu_has_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

std::uint32_t detail::crc32c_portable(std::span<const std::uint8_t> data,
                                      std::uint32_t crc) {
  std::uint32_t c = ~crc;
  for (const std::uint8_t byte : data)
    c = kTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
#ifdef SAAD_CRC32C_SSE42
  static const bool hardware = cpu_has_sse42();
  if (hardware) return crc32c_sse42(data, crc);
#endif
  return detail::crc32c_portable(data, crc);
}

}  // namespace saad
