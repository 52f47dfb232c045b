#include "storage/timestamp.h"

#include <cstdio>
#include <cstdlib>

namespace tdr {

void LamportClock::FailLimit(const char* what, std::uint64_t value) {
  std::fprintf(stderr,
               "timestamp %s %llu does not fit a timestamp "
               "(node <= %u, counter <= %llu)\n",
               what, static_cast<unsigned long long>(value), kMaxTimestampNode,
               static_cast<unsigned long long>(kMaxTimestampCounter));
  std::abort();
}

bool VersionVector::Dominates(const VersionVector& other) const {
  bool strictly_greater = false;
  // Every component of `other` must be <= ours.
  for (const auto& [node, c] : other.v_) {
    if (Get(node) < c) return false;
  }
  // And at least one of ours must exceed theirs.
  for (const auto& [node, c] : v_) {
    if (c > other.Get(node)) {
      strictly_greater = true;
      break;
    }
  }
  return strictly_greater;
}

std::string VersionVector::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [node, c] : v_) {
    if (c == 0) continue;
    if (!first) out += ",";
    first = false;
    out += std::to_string(node) + ":" + std::to_string(c);
  }
  out += "}";
  return out;
}

bool operator==(const VersionVector& a, const VersionVector& b) {
  // Zero entries are equivalent to absent entries.
  for (const auto& [node, c] : a.v_) {
    if (c != b.Get(node)) return false;
  }
  for (const auto& [node, c] : b.v_) {
    if (c != a.Get(node)) return false;
  }
  return true;
}

}  // namespace tdr
