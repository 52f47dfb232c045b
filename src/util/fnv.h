#ifndef TDR_UTIL_FNV_H_
#define TDR_UTIL_FNV_H_

#include <cstdint>

namespace tdr {

/// 64-bit FNV-1a, the hash behind every replay fingerprint (store and
/// cluster digests, chaos outcomes).
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Advances an FNV-1a chain over the eight bytes of `x`, least
/// significant first.
inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t x) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (x >> shift) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

/// FnvMix(h, x), in fewer steps when `x` fits in its low `kBytes`
/// bytes. FNV-1a xors each byte before it multiplies, and xoring a zero
/// byte changes nothing, so the 8 - kBytes zero high bytes are one
/// multiply by the prime's (8 - kBytes)th power. A wider `x` takes
/// FnvMix.
template <int kBytes>
inline std::uint64_t FnvMixNarrow(std::uint64_t h, std::uint64_t x) {
  static_assert(kBytes >= 1 && kBytes <= 8);
  if constexpr (kBytes < 8) {
    if ((x >> (8 * kBytes)) != 0) return FnvMix(h, x);
  }
  constexpr std::uint64_t kZeroBytes = [] {
    std::uint64_t p = 1;
    for (int i = kBytes; i < 8; ++i) p *= kFnvPrime;
    return p;
  }();
  for (int shift = 0; shift < 8 * kBytes; shift += 8) {
    h ^= (x >> shift) & 0xffULL;
    h *= kFnvPrime;
  }
  return h * kZeroBytes;
}

}  // namespace tdr

#endif  // TDR_UTIL_FNV_H_
