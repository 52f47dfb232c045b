#ifndef TDR_STORAGE_OBJECT_STORE_H_
#define TDR_STORAGE_OBJECT_STORE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "storage/shard_map.h"
#include "storage/timestamp.h"
#include "storage/types.h"
#include "util/result.h"
#include "util/status.h"

namespace tdr {

/// One replicated object as stored at a node: current value and the
/// timestamp of the transaction that last wrote it. Every node holds
/// one per object (§2), so this is the model's per-replica footprint.
///
/// Aligned to its size so that no slot straddles two cache lines: a
/// store's vector would otherwise start 16 bytes into a line (the
/// allocator's chunk header), and every other slot would cost two
/// misses, with the timestamp a replica apply reads first in the
/// second line. DESIGN.md §12.6.
struct alignas(32) StoredObject {
  Value value;
  Timestamp ts;

  std::string ToString() const {
    return value.ToString() + " @" + ts.ToString();
  }
};
static_assert(sizeof(StoredObject) == 32,
              "a replica slot is a 16-byte Value and a 16-byte Timestamp");

/// A node's replica of the database: DB_Size objects, dense ids.
///
/// The store itself is deliberately dumb — all concurrency control and
/// replication policy live above it (txn and replication modules). It
/// provides exactly what those layers need: value/timestamp access, the
/// timestamp tests from §4/§5, and digesting for convergence checks.
class ObjectStore {
 public:
  /// Creates `db_size` objects, all scalar zero at Timestamp::Zero().
  explicit ObjectStore(std::uint64_t db_size);

  std::uint64_t size() const { return objects_.size(); }

  bool Contains(ObjectId oid) const { return oid < objects_.size(); }

  /// Read access. Out-of-range ids are a caller bug in this fixed-schema
  /// model, reported as Status rather than UB.
  Result<std::reference_wrapper<const StoredObject>> Get(ObjectId oid) const;

  /// Mutable access for the concurrency-control layer, which has already
  /// validated the id and holds the object's lock. Range violations are
  /// a caller bug, caught in debug builds only — release builds keep the
  /// branch-free read the executor's hot path relies on.
  StoredObject& GetMutable(ObjectId oid) {
    assert(oid < objects_.size());
    return objects_[oid];
  }
  const StoredObject& GetUnchecked(ObjectId oid) const {
    assert(oid < objects_.size());
    return objects_[oid];
  }

  /// Hints the CPU to start loading `oid`'s slot into cache, for a
  /// caller that will read or write it a while later. Changes no state;
  /// an out-of-range id is ignored.
  void Prefetch(ObjectId oid) const {
    if (oid < objects_.size()) __builtin_prefetch(&objects_[oid]);
  }

  /// Installs a new value and timestamp unconditionally (used by the
  /// local commit path, which owns the object's lock).
  Status Put(ObjectId oid, Value value, Timestamp ts);

  /// The lazy-GROUP safety test (§4, Figure 4): the incoming replica
  /// update carries the timestamp the root transaction saw. Applies the
  /// update iff the local timestamp equals `expected_old_ts`; otherwise
  /// returns kConflict — the caller must submit the transaction for
  /// reconciliation.
  Status ApplyIfTimestampMatches(ObjectId oid, const Value& value,
                                 Timestamp expected_old_ts,
                                 Timestamp new_ts);

  /// The lazy-MASTER freshness test (§5): applies the update iff the
  /// incoming timestamp is newer than the local replica's. A stale
  /// update is ignored (returns OK with *applied=false), never an error —
  /// slaves converge to the master's latest state regardless of message
  /// ordering.
  Status ApplyIfNewer(ObjectId oid, const Value& value, Timestamp new_ts,
                      bool* applied);

  /// Equality ignoring timestamps — value convergence only.
  bool SameValuesAs(const ObjectStore& other) const;

  /// FNV-1a digest over values+timestamps, for cheap convergence
  /// assertions across many nodes.
  std::uint64_t Digest() const;

  /// Digest over one shard's contiguous id range — the per-shard state
  /// the sharded data plane compares, so convergence checks on a large
  /// store can scan only the shards that changed.
  std::uint64_t ShardDigest(const ShardMap& shards, ShardId shard) const;

  /// Digests of the id range [begin, end) of several stores at once:
  /// out[i] is what stores[i]'s digest of that range alone would be.
  /// Digest() and ShardDigest() are its one-store case. The stores'
  /// hash chains advance side by side, four to one walk over the ids, so
  /// a walk is bounded by multiplier throughput rather than by one
  /// chain's latency; each chain still sees exactly its own store's
  /// bytes in order, so interleaving cannot change a digest.
  static void DigestRanges(std::span<const ObjectStore* const> stores,
                           ObjectId begin, ObjectId end,
                           std::span<std::uint64_t> out);

  /// Crash model (WAL durability modes): volatile memory is gone —
  /// every object back to scalar zero at Timestamp::Zero(), exactly the
  /// as-constructed state. Capacity is retained; recovery replays the
  /// durable WAL prefix on top.
  void ResetToZero();

 private:
  std::uint64_t DigestRange(ObjectId begin, ObjectId end) const;

  std::vector<StoredObject> objects_;
};

}  // namespace tdr

#endif  // TDR_STORAGE_OBJECT_STORE_H_
