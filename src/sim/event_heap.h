#ifndef TDR_SIM_EVENT_HEAP_H_
#define TDR_SIM_EVENT_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tdr::sim {

/// d-ary min-heap of small value entries: the simulator's queue for the
/// events its timing wheel does not hold (simulator.h).
///
/// Entries carry their own ordering key (the simulator packs (time, seq,
/// slot, generation) into 24 bytes), so every sift comparison reads
/// contiguous heap memory — never the event slab. That locality is the
/// whole point: on queues bigger than cache, chasing a handle into the
/// slab per comparison costs a cache miss per level.
///
/// Arity 4 instead of 2: sift-down does 3 extra comparisons per level
/// but halves the number of levels, and the level-per-level memory walk
/// — not the comparisons — dominates once the heap leaves L1.
///
/// There is no positional removal. The simulator cancels lazily (stale
/// entries are skipped at pop time by a generation check) and calls
/// Compact() when stale entries pile up. Compact() preserves pop order:
/// keys are unique, and every valid heap over the same entries pops the
/// same sequence.
template <typename Entry, typename Less, unsigned Arity = 4>
class EventHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  const Entry& Top() const { return data_.front(); }

  void Push(const Entry& entry) {
    data_.push_back(entry);
    SiftUp(data_.size() - 1);
  }

  void PopTop() {
    Entry moved = data_.back();
    data_.pop_back();
    if (data_.empty()) return;
    data_[0] = moved;
    SiftDown(0);
  }

  /// Drops every entry for which keep() is false, then re-heapifies
  /// (Floyd, O(n)).
  template <typename Keep>
  void Compact(Keep keep) {
    data_.erase(std::remove_if(data_.begin(), data_.end(),
                               [&](const Entry& e) { return !keep(e); }),
                data_.end());
    if (data_.size() < 2) return;
    for (std::size_t i = (data_.size() - 2) / Arity + 1; i-- > 0;) {
      SiftDown(i);
    }
  }

 private:
  void SiftUp(std::size_t pos) {
    Entry entry = data_[pos];
    while (pos > 0) {
      std::size_t parent = (pos - 1) / Arity;
      if (!less_(entry, data_[parent])) break;
      data_[pos] = data_[parent];
      pos = parent;
    }
    data_[pos] = entry;
  }

  void SiftDown(std::size_t pos) {
    Entry entry = data_[pos];
    const std::size_t n = data_.size();
    while (true) {
      const std::size_t first = pos * Arity + 1;
      if (first + Arity > n) {
        // Partial (or absent) child group — necessarily the last level:
        // any child of `best` would be at index > n (see the arity
        // algebra in the header comment), so one move finishes the sift.
        if (first < n) {
          std::size_t best = first;
          for (std::size_t c = first + 1; c < n; ++c) {
            best = less_(data_[c], data_[best]) ? c : best;
          }
          if (less_(data_[best], entry)) {
            data_[pos] = data_[best];
            pos = best;
          }
        }
        break;
      }
      // Full child group. Min-child selection is the hot comparison and
      // each outcome is a coin flip, so pick via conditional moves — a
      // pairwise tournament, not a serial scan, to keep the cmovs off
      // one dependency chain.
      std::size_t best;
      if constexpr (Arity == 4) {
        const std::size_t l =
            less_(data_[first + 1], data_[first]) ? first + 1 : first;
        const std::size_t r =
            less_(data_[first + 3], data_[first + 2]) ? first + 3 : first + 2;
        best = less_(data_[r], data_[l]) ? r : l;
      } else {
        best = first;
        for (unsigned c = 1; c < Arity; ++c) {
          best = less_(data_[first + c], data_[best]) ? first + c : best;
        }
      }
      if (!less_(data_[best], entry)) break;
      data_[pos] = data_[best];
      pos = best;
    }
    data_[pos] = entry;
  }

  std::vector<Entry> data_;
  Less less_;
};

}  // namespace tdr::sim

#endif  // TDR_SIM_EVENT_HEAP_H_
