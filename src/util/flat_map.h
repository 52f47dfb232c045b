#ifndef TDR_UTIL_FLAT_MAP_H_
#define TDR_UTIL_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace tdr {

/// Open-addressed linear-probe hash map from a 64-bit key to a small
/// trivially-copyable value, built for steady-state-zero-allocation
/// hot paths (lock table and its reverse index, batch-builder
/// coalescing index). Two properties matter there:
///
///  * deletion is backward-shift, not tombstone: a workload that
///    inserts and erases forever (every transaction does) never
///    degrades the table or forces a cleanup rehash — the table only
///    reallocates when *live* occupancy crosses the load limit, which
///    a bounded-concurrency workload reaches once and never again;
///  * keys hash through a Fibonacci mix, so the sequential ids this
///    codebase uses (TxnIds, ObjectIds) spread instead of clustering.
///
/// Key 0 is reserved as the empty sentinel (kInvalidTxnId is 0 and
/// object ids are offset by callers that need id 0).
template <typename Value>
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = 0;

  FlatMap64() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

  FlatMap64(const FlatMap64&) = delete;
  FlatMap64& operator=(const FlatMap64&) = delete;

  /// Pointer to the value for `key`, or null. Invalidated by the next
  /// Insert (possible rehash) or Erase (entries shift back).
  Value* Find(std::uint64_t key) {
    assert(key != kEmptyKey);
    for (std::size_t i = IdealSlot(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }
  const Value* Find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  /// Inserts `key` (which must be absent) mapping to `value`.
  void Insert(std::uint64_t key, Value value) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    std::size_t i = IdealSlot(key);
    while (slots_[i].key != kEmptyKey) {
      assert(slots_[i].key != key && "duplicate insert");
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, value};
    ++size_;
  }

  /// Erases `key`; returns false if absent. Backward-shift deletion:
  /// the probe chain is compacted in place, no tombstones.
  bool Erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    std::size_t i = IdealSlot(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      // Move slot j into the hole unless it already sits within its
      // own probe chain segment (ideal position cyclically after the
      // hole). Standard linear-probe compaction.
      std::size_t ideal = IdealSlot(slots_[j].key);
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Empties the table, retaining capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 16;  // power of two

  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  std::size_t IdealSlot(std::uint64_t key) const {
    // Fibonacci hashing: golden-ratio multiply, top bits index.
    return static_cast<std::size_t>(
               (key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmptyKey) {
        std::size_t i = IdealSlot(s.key);
        while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
        slots_[i] = s;
        ++size_;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

}  // namespace tdr

#endif  // TDR_UTIL_FLAT_MAP_H_
