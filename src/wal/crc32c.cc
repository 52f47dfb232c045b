#include "wal/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tdr::wal {

namespace {

struct Table {
  std::uint32_t t[256];
  constexpr Table() : t{} {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

using CrcFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected CRC-32C
// as the table: 8 bytes per step, then 4, 2 and 1 for the tail. Loads
// are unaligned; records start wherever the previous one ended.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    std::uint32_t crc, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc64 = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc64);
  if (size & 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, p, 4);
    crc32 = _mm_crc32_u32(crc32, word);
    p += 4;
  }
  if (size & 2) {
    std::uint16_t word = 0;
    std::memcpy(&word, p, 2);
    crc32 = _mm_crc32_u16(crc32, word);
    p += 2;
  }
  if (size & 1) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

CrcFn SelectCrc() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cTable;
}

}  // namespace

std::uint32_t Crc32cTable(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable.t[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size) {
  static const CrcFn crc_fn = SelectCrc();
  return crc_fn(crc, data, size);
}

std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace tdr::wal
