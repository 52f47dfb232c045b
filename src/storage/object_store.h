#ifndef TDR_STORAGE_OBJECT_STORE_H_
#define TDR_STORAGE_OBJECT_STORE_H_

#include <algorithm>
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
/// Sixteen bytes in two words (DESIGN.md §12.5). Word 0 holds the
/// scalar, or the owning pointer to the list. Word 1 holds the
/// timestamp's word and the value's kind, `ts.word() << 1 | is_list`.
/// The kind sits beside the timestamp because a scalar needs all 64
/// bits of its word. An all-zero slot is scalar 0 at Timestamp::Zero().
///
/// The slot keeps Value's semantics: copies are deep, a list reads as
/// its size, and Append promotes a scalar. A moved-from slot is scalar
/// zero at Timestamp::Zero().
///
/// Aligned to its size: a 16-byte slot at a 16-byte boundary never
/// crosses a 64-byte cache line, so the one prefetch a replica apply
/// issues covers the whole slot. DESIGN.md §12.6.
class alignas(16) StoredObject {
 public:
  using List = Value::List;

  /// Scalar zero at Timestamp::Zero().
  StoredObject() = default;
  StoredObject(const Value& value, Timestamp ts) { Set(value, ts); }

  StoredObject(const StoredObject& other) { *this = other; }
  StoredObject& operator=(const StoredObject& other) {
    if (other.is_list()) {
      AssignList(*other.list());
    } else {
      AssignScalar(other.scalar());
    }
    word1_ = other.word1_;
    return *this;
  }
  StoredObject(StoredObject&& other) noexcept
      : word0_(other.word0_), word1_(other.word1_) {
    other.word0_ = 0;
    other.word1_ = 0;
  }
  StoredObject& operator=(StoredObject&& other) noexcept {
    if (this != &other) {
      FreeList();
      word0_ = other.word0_;
      word1_ = other.word1_;
      other.word0_ = 0;
      other.word1_ = 0;
    }
    return *this;
  }
  ~StoredObject() { FreeList(); }

  bool is_scalar() const { return (word1_ & kListBit) == 0; }
  bool is_list() const { return !is_scalar(); }

  /// Scalar accessor; a list reads as its size, as Value::AsScalar.
  std::int64_t AsScalar() const {
    if (is_scalar()) return scalar();
    return static_cast<std::int64_t>(list()->size());
  }
  const List& AsList() const {
    static const List kEmpty;
    return is_list() ? *list() : kEmpty;
  }
  /// A deep copy of the value.
  Value value() const {
    return is_list() ? Value(*list()) : Value(scalar());
  }
  /// Kinds are distinct: a scalar never equals a list.
  bool SameValueAs(const StoredObject& other) const {
    if (is_list() && other.is_list()) return *list() == *other.list();
    return word0_ == other.word0_ && is_list() == other.is_list();
  }

  Timestamp ts() const { return Timestamp::FromWord(word1_ >> 1); }

  void set_ts(Timestamp ts) {
    word1_ = ts.word() << 1 | (word1_ & kListBit);
  }
  /// Installs a copy of `value` (reusing this slot's list, if it has
  /// one) and `ts`.
  void Set(const Value& value, Timestamp ts) {
    if (value.is_list()) {
      AssignList(value.AsList());
    } else {
      AssignScalar(value.AsScalar());
    }
    set_ts(ts);
  }
  /// Becomes the scalar `v`, freeing any list. Keeps the timestamp.
  void SetScalar(std::int64_t v) { AssignScalar(v); }
  /// Value::Append on the slot: a scalar is promoted to a list holding
  /// the old scalar first (if nonzero), and items stay sorted. Keeps
  /// the timestamp.
  void Append(std::int64_t item) {
    if (is_scalar()) {
      auto* promoted = new List;
      if (scalar() != 0) promoted->push_back(scalar());
      word0_ = reinterpret_cast<std::uintptr_t>(promoted);
      word1_ |= kListBit;
    }
    List& items = *list();
    items.insert(std::lower_bound(items.begin(), items.end(), item), item);
  }

  std::string ToString() const {
    return value().ToString() + " @" + ts().ToString();
  }

 private:
  static constexpr std::uint64_t kListBit = 1;

  std::int64_t scalar() const { return static_cast<std::int64_t>(word0_); }
  List* list() const { return reinterpret_cast<List*>(word0_); }
  void FreeList() {
    if (is_list()) DeleteList();
  }
  // Out of line, so that a compiler inlining a scalar slot's destructor
  // never sees a `delete` of the scalar's bits on a path it cannot prove
  // dead (GCC 12's -Warray-bounds does).
  void DeleteList();
  void AssignScalar(std::int64_t v) {
    FreeList();
    word0_ = static_cast<std::uint64_t>(v);
    word1_ &= ~kListBit;
  }
  void AssignList(const List& items) {
    if (is_list()) {
      *list() = items;  // reuses this list's capacity
    } else {
      word0_ = reinterpret_cast<std::uintptr_t>(new List(items));
      word1_ |= kListBit;
    }
  }

  std::uint64_t word0_ = 0;  // the scalar, or the owned List*
  std::uint64_t word1_ = 0;  // ts.word() << 1 | is_list
};
static_assert(sizeof(StoredObject) == 16,
              "a replica slot is one word of value and one of timestamp");

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
  Status Put(ObjectId oid, const Value& value, Timestamp ts);

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
