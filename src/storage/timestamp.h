#ifndef TDR_STORAGE_TIMESTAMP_H_
#define TDR_STORAGE_TIMESTAMP_H_

#include <cassert>
#include <compare>
#include <cstdint>
#include <map>
#include <string>

#include "storage/types.h"

namespace tdr {

/// A timestamp's limits (DESIGN.md §12.5): a node id fits 16 bits and a
/// counter 47, so that a store slot can keep a timestamp beside one more
/// bit in a word. Every timestamp is held to them where it is born: a
/// LamportClock's node at construction and its counter in Tick, and a
/// timestamp read back from the WAL in wal::DecodeRecord.
inline constexpr int kTimestampNodeBits = 16;
inline constexpr NodeId kMaxTimestampNode =
    (NodeId{1} << kTimestampNodeBits) - 1;
inline constexpr std::uint64_t kMaxTimestampCounter =
    (std::uint64_t{1} << (63 - kTimestampNodeBits)) - 1;

/// Lamport timestamp: (counter, node). Counters advance per node on
/// every commit and are merged on message receipt, so timestamps are
/// unique and totally ordered across the cluster — exactly what the
/// paper's lazy-group "old timestamp must match" test (§4, Figure 4) and
/// the lazy-master "newer wins / stale is ignored" test (§5) require.
///
/// One word, `counter << 16 | node`: within the limits above, words
/// order and compare exactly as the (counter, node) pairs do, so the
/// defaulted comparisons are the §4 and §5 tests.
class Timestamp {
 public:
  /// True if (counter, node) is within the limits above.
  static constexpr bool Fits(std::uint64_t counter, std::uint64_t node) {
    return counter <= kMaxTimestampCounter && node <= kMaxTimestampNode;
  }

  constexpr Timestamp() = default;
  constexpr Timestamp(std::uint64_t counter, NodeId node)
      : word_(counter << kTimestampNodeBits | node) {
    assert(Fits(counter, node));
  }
  constexpr Timestamp(const Timestamp&) = default;
  constexpr Timestamp(Timestamp&&) = default;
  /// Assignable only through an lvalue: a store slot hands its timestamp
  /// out by value, so `slot.ts() = t` would compile and change nothing.
  constexpr Timestamp& operator=(const Timestamp&) & = default;
  constexpr Timestamp& operator=(Timestamp&&) & = default;

  /// The timestamp whose word is `word` (a store slot keeps the word).
  static constexpr Timestamp FromWord(std::uint64_t word) {
    Timestamp ts;
    ts.word_ = word;
    return ts;
  }

  /// The zero timestamp orders before every commit timestamp and marks a
  /// never-updated object.
  static constexpr Timestamp Zero() { return Timestamp(); }

  constexpr std::uint64_t counter() const {
    return word_ >> kTimestampNodeBits;
  }
  constexpr NodeId node() const {
    return static_cast<NodeId>(word_ & kMaxTimestampNode);
  }
  constexpr std::uint64_t word() const { return word_; }

  constexpr bool IsZero() const { return counter() == 0; }

  std::string ToString() const {
    return std::to_string(counter()) + "@" + std::to_string(node());
  }

  /// Total order: counter first, node id breaks ties.
  constexpr bool operator==(const Timestamp&) const = default;
  constexpr auto operator<=>(const Timestamp&) const = default;

 private:
  std::uint64_t word_ = 0;
};
static_assert(sizeof(Timestamp) == 8, "a timestamp is one word");

/// Per-node Lamport clock. A node id past kMaxTimestampNode, or a Tick
/// past kMaxTimestampCounter, aborts, in release builds too: a timestamp
/// that did not fit would order wrongly everywhere.
class LamportClock {
 public:
  explicit LamportClock(NodeId node) : node_(node) {
    if (node > kMaxTimestampNode) FailLimit("node id", node);
  }

  /// Produces the next local timestamp.
  Timestamp Tick() {
    if (counter_ >= kMaxTimestampCounter) [[unlikely]] {
      FailLimit("counter", counter_ + 1);
    }
    return Timestamp{++counter_, node_};
  }

  /// Advances the clock past an observed remote timestamp (standard
  /// Lamport receive rule).
  void Observe(Timestamp remote) {
    if (remote.counter() > counter_) counter_ = remote.counter();
  }

  Timestamp Peek() const { return Timestamp{counter_, node_}; }

 private:
  /// Reports a node id or counter past the timestamp limits and aborts.
  [[noreturn]] static void FailLimit(const char* what, std::uint64_t value);

  NodeId node_;
  std::uint64_t counter_ = 0;
};

/// Version vector (one counter per updating node), as used by Microsoft
/// Access "Wingman" replication (§6): each replica keeps a version vector
/// per record; vectors are exchanged pairwise, the dominating version
/// wins, and concurrent versions are flagged as conflicts.
class VersionVector {
 public:
  VersionVector() = default;

  std::uint64_t Get(NodeId node) const {
    auto it = v_.find(node);
    return it == v_.end() ? 0 : it->second;
  }

  void BumpTo(NodeId node, std::uint64_t counter) {
    std::uint64_t& slot = v_[node];
    if (counter > slot) slot = counter;
  }

  void Increment(NodeId node) { ++v_[node]; }

  /// Component-wise maximum.
  void Merge(const VersionVector& other) {
    for (const auto& [node, c] : other.v_) BumpTo(node, c);
  }

  /// True if every component of this vector >= other's and at least one
  /// is strictly greater.
  bool Dominates(const VersionVector& other) const;

  /// Neither dominates and they are unequal: concurrent updates.
  bool ConcurrentWith(const VersionVector& other) const {
    return !(*this == other) && !Dominates(other) && !other.Dominates(*this);
  }

  std::string ToString() const;

  friend bool operator==(const VersionVector& a, const VersionVector& b);

 private:
  // map (not unordered) so iteration and ToString are deterministic.
  std::map<NodeId, std::uint64_t> v_;
};

}  // namespace tdr

#endif  // TDR_STORAGE_TIMESTAMP_H_
