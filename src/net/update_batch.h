#ifndef TDR_NET_UPDATE_BATCH_H_
#define TDR_NET_UPDATE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"
#include "storage/update_record.h"
#include "util/flat_map.h"
#include "util/sim_time.h"

namespace tdr {

/// The wire unit of batched log shipping: one origin's committed
/// updates to one destination, coalesced over a flush window. Replaces
/// the per-commit replica-update message of the naive lazy schemes —
/// Parallel Deferred Update Replication and SCAR-style systems ship
/// exactly this shape: a commit-ordered, per-object-compacted slice of
/// the origin's update log.
///
/// Updates stay in commit order. When two updates in the same window
/// touch the same object, the builder compacts them into one record
/// whose `old_ts` is the FIRST update's pre-image timestamp and whose
/// (new_ts, new_value) are the LAST's — the receiver's timestamp-match
/// test then behaves as if it had applied the whole chain, and the
/// newer-wins test sees only the final state. That compaction is where
/// batching beats per-update shipping on hot keys: a key updated k
/// times per window ships (and locks, and costs Action_Time) once.
struct UpdateBatch {
  NodeId origin = kInvalidNodeId;
  NodeId dest = kInvalidNodeId;
  /// Per-(origin, dest) stream sequence number, starting at 1.
  std::uint64_t seq = 0;
  /// Sim time the batch's first update was enqueued — flush latency is
  /// ship time minus this.
  SimTime opened;
  /// Commit-ordered, per-object-compacted updates.
  std::vector<UpdateRecord> updates;
  /// Updates absorbed by compaction (they never hit the wire).
  std::uint64_t coalesced = 0;

  std::size_t size() const { return updates.size(); }
  bool empty() const { return updates.empty(); }
  std::string ToString() const;
};

/// SharedPool reset hook: pooled batches recycle with their update
/// vector's capacity retained.
inline void PoolClear(UpdateBatch& batch) {
  batch.updates.clear();
  batch.coalesced = 0;
}

/// Accumulates one (origin, dest) stream's updates between flushes.
/// Append is O(1); per-object compaction is an index hit. The builder
/// is deliberately network-oblivious — the replication layer decides
/// when to flush and where the batch goes.
class UpdateBatchBuilder {
 public:
  /// Adds `rec` to the pending batch. With `coalesce`, an update to an
  /// object already pending is folded into the existing record (chain
  /// compaction as documented on UpdateBatch) instead of appended.
  void Add(const UpdateRecord& rec, bool coalesce);

  std::size_t size() const { return updates_.size(); }
  bool empty() const { return updates_.empty(); }
  std::uint64_t coalesced() const { return coalesced_; }

  /// Moves the pending updates into `*out`, stamped with the stream
  /// coordinates, and resets the builder for the next window. The
  /// vectors swap, so the builder inherits `*out`'s cleared capacity:
  /// cycling a builder against a batch pool allocates nothing.
  void TakeInto(NodeId origin, NodeId dest, std::uint64_t seq,
                SimTime opened, UpdateBatch* out);

  /// Pre-grows the pending-update buffer. TakeInto swaps capacities
  /// with the receiving batch, so callers cycling builders against a
  /// batch pool should hold both sides at a common floor — otherwise
  /// every swap can hand a window a buffer smaller than its traffic.
  void Reserve(std::size_t n) { updates_.reserve(n); }

 private:
  std::vector<UpdateRecord> updates_;
  // Pending position per object, for compaction. Flat map so the
  // per-window fill/clear cycle allocates nothing at steady state;
  // keys are oid + 1 (key 0 is the map's empty sentinel).
  FlatMap64<std::uint32_t> index_;
  std::uint64_t coalesced_ = 0;
};

}  // namespace tdr

#endif  // TDR_NET_UPDATE_BATCH_H_
