#ifndef TDR_UTIL_FNV_H_
#define TDR_UTIL_FNV_H_

#include <cstdint>

namespace tdr {

/// 64-bit FNV-1a, the hash behind every replay fingerprint (store and
/// cluster digests, chaos outcomes).
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Advances an FNV-1a chain over the eight bytes of `x`, least
/// significant first.
inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t x) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (x >> shift) & 0xffULL;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace tdr

#endif  // TDR_UTIL_FNV_H_
