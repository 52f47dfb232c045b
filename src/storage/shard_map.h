#ifndef TDR_STORAGE_SHARD_MAP_H_
#define TDR_STORAGE_SHARD_MAP_H_

#include <cstdint>
#include <string>

#include "storage/types.h"

namespace tdr {

/// Shards are identified by a dense integer id in [0, num_shards).
using ShardId = std::uint32_t;

/// Range partition of the dense object-id space [0, db_size) into
/// `num_shards` contiguous, near-equal shards (the first `db_size %
/// num_shards` shards hold one extra object).
///
/// Sharding is the scale lever the replication model keeps pointing at:
/// per-update work grows with the number of objects guarded by one
/// structure, so the replica appliers, quorum catch-up and the WAL all
/// key their state off this map. Contiguous ranges (rather than a
/// hash) keep every per-shard operation a dense scan — shard digests
/// and the hot/cold skew workload are contiguous-id walks — and make
/// "hot shard" mean what it does in a production
/// range-sharded store: a hot key range.
///
/// The map is pure arithmetic: no allocation, O(1) ShardOf, trivially
/// copyable, deterministic. A ShardMap with one shard is the unsharded
/// world and costs nothing.
class ShardMap {
 public:
  /// `num_shards` is clamped to [1, db_size] (at least one object per
  /// shard; a zero-shard or empty map is meaningless).
  ShardMap(std::uint64_t db_size, std::uint32_t num_shards);

  std::uint64_t db_size() const { return db_size_; }
  std::uint32_t num_shards() const { return num_shards_; }

  /// The shard owning `oid`. Requires oid < db_size().
  ShardId ShardOf(ObjectId oid) const {
    // First `rem_` shards span base_+1 ids each; the rest span base_.
    std::uint64_t wide_span = rem_ * (base_ + 1);
    if (oid < wide_span) {
      return static_cast<ShardId>(oid / (base_ + 1));
    }
    return static_cast<ShardId>(rem_ + (oid - wide_span) / base_);
  }

  /// First object id of `shard`. Requires shard < num_shards().
  ObjectId ShardBegin(ShardId shard) const {
    std::uint64_t wide = shard < rem_ ? shard : rem_;
    return shard * base_ + wide;
  }

  /// One past the last object id of `shard`.
  ObjectId ShardEnd(ShardId shard) const { return ShardBegin(shard + 1); }

  /// Objects in `shard`.
  std::uint64_t ShardSize(ShardId shard) const {
    return base_ + (shard < rem_ ? 1 : 0);
  }

  friend bool operator==(const ShardMap& a, const ShardMap& b) {
    return a.db_size_ == b.db_size_ && a.num_shards_ == b.num_shards_;
  }

  std::string ToString() const;

 private:
  std::uint64_t db_size_;
  std::uint32_t num_shards_;
  std::uint64_t base_;  // objects per shard, rounded down
  std::uint64_t rem_;   // shards carrying one extra object
};

}  // namespace tdr

#endif  // TDR_STORAGE_SHARD_MAP_H_
