#include "storage/object_store.h"

#include <algorithm>
#include <iterator>

#include "util/fnv.h"
#include "util/logging.h"

namespace tdr {

ObjectStore::ObjectStore(std::uint64_t db_size) : objects_(db_size) {}

Result<std::reference_wrapper<const StoredObject>> ObjectStore::Get(
    ObjectId oid) const {
  if (!Contains(oid)) {
    return Status::NotFound(StrPrintf("object %llu out of range (db=%zu)",
                                      (unsigned long long)oid,
                                      objects_.size()));
  }
  return std::cref(objects_[oid]);
}

Status ObjectStore::Put(ObjectId oid, Value value, Timestamp ts) {
  if (!Contains(oid)) {
    return Status::NotFound("Put: object out of range");
  }
  StoredObject& obj = objects_[oid];
  obj.value = std::move(value);
  obj.ts = ts;
  return Status::OK();
}

Status ObjectStore::ApplyIfTimestampMatches(ObjectId oid, const Value& value,
                                            Timestamp expected_old_ts,
                                            Timestamp new_ts) {
  if (!Contains(oid)) {
    return Status::NotFound("ApplyIfTimestampMatches: object out of range");
  }
  StoredObject& obj = objects_[oid];
  if (obj.ts != expected_old_ts) {
    // "If the current timestamp of the local replica does not match the
    // old timestamp seen by the root transaction, then the update may be
    // dangerous. ... the node rejects the incoming transaction and
    // submits it for reconciliation." (§4)
    //
    // This is the lazy-group hot path at every reconciliation — Eq. (14)
    // makes these frequent by design — so the message must fit the
    // small-string buffer: no formatting, no heap. The caller knows the
    // oid and both timestamps if it wants a detailed trace record.
    return Status::Conflict("ts mismatch");
  }
  obj.value = value;
  obj.ts = new_ts;
  return Status::OK();
}

Status ObjectStore::ApplyIfNewer(ObjectId oid, const Value& value,
                                 Timestamp new_ts, bool* applied) {
  if (!Contains(oid)) {
    return Status::NotFound("ApplyIfNewer: object out of range");
  }
  StoredObject& obj = objects_[oid];
  if (new_ts > obj.ts) {
    obj.value = value;
    obj.ts = new_ts;
    if (applied != nullptr) *applied = true;
  } else {
    // "If the record timestamp is newer than a replica update timestamp,
    // the update is stale and can be ignored." (§5)
    if (applied != nullptr) *applied = false;
  }
  return Status::OK();
}

bool ObjectStore::SameValuesAs(const ObjectStore& other) const {
  if (objects_.size() != other.objects_.size()) return false;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (objects_[i].value != other.objects_[i].value) return false;
  }
  return true;
}

namespace {

constexpr std::uint64_t kScalarTag = 0x5ca1a6;
constexpr std::uint64_t kListTag = 0x115717;

// One object's contribution to a store's digest chain: its kind tag,
// then the scalar or every list item, then its timestamp.
std::uint64_t MixObject(std::uint64_t h, const StoredObject& obj) {
  if (obj.value.is_scalar()) {
    h = FnvMix(h, kScalarTag);
    h = FnvMix(h, static_cast<std::uint64_t>(obj.value.AsScalar()));
  } else {
    h = FnvMix(h, kListTag);
    for (std::int64_t item : obj.value.AsList()) {
      h = FnvMix(h, static_cast<std::uint64_t>(item));
    }
  }
  h = FnvMix(h, obj.ts.counter);
  return FnvMix(h, obj.ts.node);
}

// Advances kLanes independent digest chains over [begin, end), one per
// store. When every lane's object is a scalar (nearly always), the
// lanes mix word by word in lockstep, so the CPU overlaps the kLanes
// multiply chains; any list falls back to MixObject lane by lane. Both
// feed each chain the same words in the same order. The scalar path
// mixes each word's zero high bytes in one multiply (FnvMixNarrow): the
// tag has three significant bytes, nearly every scalar and node id one,
// and nearly every counter at most three; a wider word takes FnvMix.
template <std::size_t kLanes>
void DigestLanes(const StoredObject* const* stores, ObjectId begin,
                 ObjectId end, std::uint64_t* out) {
  std::uint64_t h[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) h[k] = kFnvOffsetBasis;
  for (ObjectId oid = begin; oid < end; ++oid) {
    const StoredObject* obj[kLanes];
    bool all_scalar = true;
    for (std::size_t k = 0; k < kLanes; ++k) {
      obj[k] = &stores[k][oid];
      all_scalar = all_scalar && obj[k]->value.is_scalar();
    }
    if (!all_scalar) {
      for (std::size_t k = 0; k < kLanes; ++k) h[k] = MixObject(h[k], *obj[k]);
      continue;
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      h[k] = FnvMixNarrow<3>(h[k], kScalarTag);
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      const auto scalar = static_cast<std::uint64_t>(obj[k]->value.AsScalar());
      h[k] = FnvMixNarrow<1>(h[k], scalar);
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      h[k] = FnvMixNarrow<3>(h[k], obj[k]->ts.counter);
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      h[k] = FnvMixNarrow<1>(h[k], obj[k]->ts.node);
    }
  }
  for (std::size_t k = 0; k < kLanes; ++k) out[k] = h[k];
}

}  // namespace

void ObjectStore::DigestRanges(std::span<const ObjectStore* const> stores,
                               ObjectId begin, ObjectId end,
                               std::span<std::uint64_t> out) {
  assert(out.size() == stores.size());
  using Kernel = void (*)(const StoredObject* const*, ObjectId, ObjectId,
                          std::uint64_t*);
  constexpr Kernel kKernels[] = {&DigestLanes<1>, &DigestLanes<2>,
                                 &DigestLanes<3>, &DigestLanes<4>};
  constexpr std::size_t kMaxLanes = std::size(kKernels);
  const StoredObject* lanes[kMaxLanes];
  for (std::size_t first = 0; first < stores.size(); first += kMaxLanes) {
    const std::size_t n = std::min(kMaxLanes, stores.size() - first);
    for (std::size_t k = 0; k < n; ++k) {
      assert(end <= stores[first + k]->size());
      lanes[k] = stores[first + k]->objects_.data();
    }
    kKernels[n - 1](lanes, begin, end, out.data() + first);
  }
}

std::uint64_t ObjectStore::DigestRange(ObjectId begin, ObjectId end) const {
  const ObjectStore* self = this;
  std::uint64_t digest = 0;
  DigestRanges({&self, 1}, begin, end, {&digest, 1});
  return digest;
}

std::uint64_t ObjectStore::Digest() const {
  return DigestRange(0, objects_.size());
}

std::uint64_t ObjectStore::ShardDigest(const ShardMap& shards,
                                       ShardId shard) const {
  return DigestRange(shards.ShardBegin(shard), shards.ShardEnd(shard));
}

void ObjectStore::ResetToZero() {
  for (StoredObject& obj : objects_) {
    obj = StoredObject{};
  }
}

}  // namespace tdr
