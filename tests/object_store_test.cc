#include "storage/object_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "storage/tentative_store.h"
#include "util/fnv.h"

namespace tdr {
namespace {

TEST(ObjectStoreTest, ReplicaSlotIs16Bytes) {
  // Every node holds one slot per object (§2): a word of value (the
  // scalar, or the owning pointer to a list) and a word of timestamp and
  // kind, aligned so that no slot straddles a cache line.
  EXPECT_EQ(sizeof(StoredObject), 16u);
  EXPECT_EQ(alignof(StoredObject), 16u);
}

TEST(StoredObjectTest, PackingRoundTripsAtTheLimits) {
  for (std::uint64_t counter : {std::uint64_t{0}, std::uint64_t{1},
                                kMaxTimestampCounter}) {
    for (NodeId node : {NodeId{0}, NodeId{1}, kMaxTimestampNode}) {
      ASSERT_TRUE(Timestamp::Fits(counter, node));
      const Timestamp ts{counter, node};
      EXPECT_EQ(ts.counter(), counter);
      EXPECT_EQ(ts.node(), node);
      // -1 sets every bit of the scalar's word.
      const StoredObject scalar(Value(-1), ts);
      EXPECT_TRUE(scalar.is_scalar());
      EXPECT_EQ(scalar.AsScalar(), -1);
      EXPECT_EQ(scalar.ts(), ts);
      const StoredObject list(Value(Value::List{2, 3}), ts);
      EXPECT_TRUE(list.is_list());
      EXPECT_EQ(list.AsList(), (Value::List{2, 3}));
      EXPECT_EQ(list.ts(), ts);
    }
  }
  EXPECT_FALSE(Timestamp::Fits(kMaxTimestampCounter + 1, 0));
  EXPECT_FALSE(Timestamp::Fits(0, kMaxTimestampNode + 1));
}

TEST(StoredObjectTest, PackedOrderIsTimestampOrder) {
  std::mt19937_64 rng(25);
  // Half the draws come from a few small values, so that equal counters
  // and equal pairs are common.
  auto draw = [&rng] {
    const bool small = rng() % 2 == 0;
    const std::uint64_t counter =
        small ? rng() % 4 : rng() & kMaxTimestampCounter;
    const auto node =
        static_cast<NodeId>(small ? rng() % 3 : rng() & kMaxTimestampNode);
    return std::make_pair(counter, node);
  };
  for (int i = 0; i < 100000; ++i) {
    const auto pa = draw();
    const auto pb = draw();
    const Timestamp a{pa.first, pa.second};
    const Timestamp b{pb.first, pb.second};
    // The word orders as (counter, node), lexicographically.
    ASSERT_EQ(a < b, pa < pb) << a.ToString() << " " << b.ToString();
    ASSERT_EQ(a == b, pa == pb);
    ASSERT_EQ(a.counter(), pa.first);
    ASSERT_EQ(a.node(), pa.second);
    // The kind bit never takes part: a list slot and a scalar slot
    // compare by timestamp alone.
    const StoredObject list(Value(Value::List{1}), a);
    const StoredObject scalar(Value(1), b);
    ASSERT_EQ(list.ts(), a);
    ASSERT_EQ(scalar.ts(), b);
    ASSERT_EQ(list.ts() < scalar.ts(), pa < pb);
  }
}

TEST(StoredObjectTest, AppendPromotesAndAScalarWriteFreesTheList) {
  ObjectStore store(1);
  ASSERT_TRUE(store.Put(0, Value(5), Timestamp(1, 0)).ok());
  const StoredObject& slot = store.GetUnchecked(0);
  store.GetMutable(0).Append(9);
  store.GetMutable(0).Append(2);
  EXPECT_TRUE(slot.is_list());
  EXPECT_EQ(slot.AsList(), (Value::List{2, 5, 9}));
  EXPECT_EQ(slot.AsScalar(), 3);  // a list reads as its size
  EXPECT_EQ(slot.ts(), Timestamp(1, 0));
  EXPECT_EQ(slot.value(), Value(Value::List{2, 5, 9}));
  // A scalar zero promotes to an empty list first.
  StoredObject zero;
  zero.Append(4);
  EXPECT_EQ(zero.AsList(), (Value::List{4}));
  // A scalar write frees the list (a leak checker would report it).
  ASSERT_TRUE(store.Put(0, Value(-1), Timestamp(2, 1)).ok());
  EXPECT_TRUE(slot.is_scalar());
  EXPECT_EQ(slot.AsScalar(), -1);
  EXPECT_TRUE(slot.AsList().empty());
  EXPECT_EQ(slot.ts(), Timestamp(2, 1));
  // The §4 and §5 tests see the timestamp, not the kind.
  ASSERT_TRUE(store
                  .ApplyIfTimestampMatches(0, Value(Value::List{7}),
                                           Timestamp(2, 1), Timestamp(3, 0))
                  .ok());
  EXPECT_EQ(slot.AsList(), (Value::List{7}));
  EXPECT_TRUE(store
                  .ApplyIfTimestampMatches(0, Value(1), Timestamp(2, 1),
                                           Timestamp(4, 0))
                  .IsConflict());
  bool applied = true;
  ASSERT_TRUE(store.ApplyIfNewer(0, Value(8), Timestamp(3, 0), &applied).ok());
  EXPECT_FALSE(applied);
  ASSERT_TRUE(store.ApplyIfNewer(0, Value(8), Timestamp(3, 1), &applied).ok());
  EXPECT_TRUE(applied);
  EXPECT_TRUE(slot.is_scalar());
  EXPECT_EQ(slot.AsScalar(), 8);
}

TEST(StoredObjectTest, CopiesAreDeepAndMovesLeaveScalarZero) {
  StoredObject a(Value(Value::List{1, 2}), Timestamp(3, 1));
  StoredObject b = a;
  b.Append(7);
  EXPECT_EQ(a.AsList(), (Value::List{1, 2}));
  EXPECT_EQ(b.AsList(), (Value::List{1, 2, 7}));
  EXPECT_EQ(b.ts(), Timestamp(3, 1));
  // List over scalar, list over list, scalar over list, and self.
  StoredObject c(Value(4), Timestamp(1, 0));
  c = a;
  EXPECT_TRUE(c.SameValueAs(a));
  EXPECT_EQ(c.ts(), a.ts());
  c = b;
  EXPECT_EQ(c.AsList(), (Value::List{1, 2, 7}));
  c = StoredObject(Value(6), Timestamp(5, 2));
  EXPECT_TRUE(c.is_scalar());
  EXPECT_EQ(c.AsScalar(), 6);
  const StoredObject& alias = a;
  a = alias;
  EXPECT_EQ(a.AsList(), (Value::List{1, 2}));
  // Kinds are distinct: a scalar never equals a list of its size.
  EXPECT_FALSE(StoredObject(Value(2), Timestamp(1, 0))
                   .SameValueAs(StoredObject(Value(Value::List{5, 6}),
                                             Timestamp(1, 0))));
  EXPECT_FALSE(StoredObject().SameValueAs(
      StoredObject(Value(Value::List{}), Timestamp::Zero())));

  // A moved-from slot is scalar zero at Timestamp::Zero(): reading one
  // is what this part checks.
  // NOLINTBEGIN(bugprone-use-after-move)
  StoredObject d = std::move(b);
  EXPECT_EQ(d.AsList(), (Value::List{1, 2, 7}));
  EXPECT_TRUE(b.is_scalar());
  EXPECT_EQ(b.AsScalar(), 0);
  EXPECT_EQ(b.ts(), Timestamp::Zero());
  a = std::move(d);  // frees a's own list
  EXPECT_EQ(a.AsList(), (Value::List{1, 2, 7}));
  EXPECT_EQ(a.ts(), Timestamp(3, 1));
  EXPECT_TRUE(d.is_scalar());
  EXPECT_EQ(d.ts(), Timestamp::Zero());
  // NOLINTEND(bugprone-use-after-move)
}

TEST(ObjectStoreTest, ResetToZeroFreesLists) {
  ObjectStore store(3);
  ASSERT_TRUE(store.Put(0, Value(Value::List{1, 2}), Timestamp(4, 1)).ok());
  ASSERT_TRUE(store.Put(1, Value(9), Timestamp(5, 0)).ok());
  store.GetMutable(2).Append(3);
  store.ResetToZero();
  for (ObjectId oid = 0; oid < store.size(); ++oid) {
    EXPECT_TRUE(store.GetUnchecked(oid).is_scalar());
    EXPECT_EQ(store.GetUnchecked(oid).AsScalar(), 0);
    EXPECT_EQ(store.GetUnchecked(oid).ts(), Timestamp::Zero());
  }
  EXPECT_EQ(store.Digest(), ObjectStore(3).Digest());
}

TEST(ObjectStoreTest, InitialStateAllZero) {
  ObjectStore store(5);
  EXPECT_EQ(store.size(), 5u);
  for (ObjectId oid = 0; oid < 5; ++oid) {
    auto obj = store.Get(oid);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj.value().get().AsScalar(), 0);
    EXPECT_TRUE(obj.value().get().ts().IsZero());
  }
}

TEST(ObjectStoreTest, GetOutOfRangeIsNotFound) {
  ObjectStore store(3);
  EXPECT_TRUE(store.Get(3).status().IsNotFound());
  EXPECT_FALSE(store.Contains(3));
  EXPECT_TRUE(store.Contains(2));
}

TEST(ObjectStoreTest, PutInstallsValueAndTimestamp) {
  ObjectStore store(3);
  ASSERT_TRUE(store.Put(1, Value(99), Timestamp(5, 0)).ok());
  const StoredObject& obj = store.GetUnchecked(1);
  EXPECT_EQ(obj.AsScalar(), 99);
  EXPECT_EQ(obj.ts(), Timestamp(5, 0));
}

TEST(ObjectStoreTest, PutOutOfRangeFails) {
  ObjectStore store(1);
  EXPECT_TRUE(store.Put(9, Value(1), Timestamp(1, 0)).IsNotFound());
}

TEST(ObjectStoreTest, ApplyIfTimestampMatchesAcceptsMatch) {
  // The §4 lazy-group test: old timestamp matches -> safe to apply.
  ObjectStore store(2);
  ASSERT_TRUE(store.Put(0, Value(10), Timestamp(3, 1)).ok());
  Status s = store.ApplyIfTimestampMatches(0, Value(20), Timestamp(3, 1),
                                           Timestamp(7, 2));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(store.GetUnchecked(0).AsScalar(), 20);
  EXPECT_EQ(store.GetUnchecked(0).ts(), Timestamp(7, 2));
}

TEST(ObjectStoreTest, ApplyIfTimestampMatchesRejectsMismatch) {
  // "If the current timestamp of the local replica does not match the
  // old timestamp seen by the root transaction, the update may be
  // dangerous" -> kConflict, local value untouched.
  ObjectStore store(2);
  ASSERT_TRUE(store.Put(0, Value(10), Timestamp(5, 0)).ok());
  Status s = store.ApplyIfTimestampMatches(0, Value(20), Timestamp(3, 1),
                                           Timestamp(7, 2));
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(store.GetUnchecked(0).AsScalar(), 10);
  EXPECT_EQ(store.GetUnchecked(0).ts(), Timestamp(5, 0));
}

TEST(ObjectStoreTest, ApplyIfTimestampMatchesFromZero) {
  ObjectStore store(1);
  Status s = store.ApplyIfTimestampMatches(0, Value(5), Timestamp::Zero(),
                                           Timestamp(1, 0));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(store.GetUnchecked(0).AsScalar(), 5);
}

TEST(ObjectStoreTest, ApplyIfNewerAppliesNewer) {
  ObjectStore store(1);
  ASSERT_TRUE(store.Put(0, Value(1), Timestamp(2, 0)).ok());
  bool applied = false;
  ASSERT_TRUE(
      store.ApplyIfNewer(0, Value(2), Timestamp(3, 0), &applied).ok());
  EXPECT_TRUE(applied);
  EXPECT_EQ(store.GetUnchecked(0).AsScalar(), 2);
}

TEST(ObjectStoreTest, ApplyIfNewerIgnoresStale) {
  // "If the record timestamp is newer than a replica update timestamp,
  // the update is stale and can be ignored" (§5).
  ObjectStore store(1);
  ASSERT_TRUE(store.Put(0, Value(9), Timestamp(5, 0)).ok());
  bool applied = true;
  ASSERT_TRUE(
      store.ApplyIfNewer(0, Value(2), Timestamp(3, 0), &applied).ok());
  EXPECT_FALSE(applied);
  EXPECT_EQ(store.GetUnchecked(0).AsScalar(), 9);
}

TEST(ObjectStoreTest, ApplyIfNewerEqualTimestampIsStale) {
  ObjectStore store(1);
  ASSERT_TRUE(store.Put(0, Value(9), Timestamp(5, 0)).ok());
  bool applied = true;
  ASSERT_TRUE(
      store.ApplyIfNewer(0, Value(2), Timestamp(5, 0), &applied).ok());
  EXPECT_FALSE(applied);
}

TEST(ObjectStoreTest, NewerWinsConvergesRegardlessOfOrder) {
  // Slave replicas converge to the newest value no matter the delivery
  // order — the §5 convergence argument.
  ObjectStore a(1), b(1);
  bool applied;
  // In-order at a, reversed at b.
  ASSERT_TRUE(a.ApplyIfNewer(0, Value(1), Timestamp(1, 0), &applied).ok());
  ASSERT_TRUE(a.ApplyIfNewer(0, Value(2), Timestamp(2, 0), &applied).ok());
  ASSERT_TRUE(b.ApplyIfNewer(0, Value(2), Timestamp(2, 0), &applied).ok());
  ASSERT_TRUE(b.ApplyIfNewer(0, Value(1), Timestamp(1, 0), &applied).ok());
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.GetUnchecked(0).AsScalar(), 2);
}

TEST(ObjectStoreTest, SameStateAndValues) {
  ObjectStore a(2), b(2);
  ASSERT_TRUE(a.Put(0, Value(1), Timestamp(1, 0)).ok());
  EXPECT_FALSE(a.SameValuesAs(b));
  ASSERT_TRUE(b.Put(0, Value(1), Timestamp(2, 0)).ok());
  EXPECT_TRUE(a.SameValuesAs(b));  // values match, timestamps differ
}

TEST(ObjectStoreTest, SameStateSizeMismatch) {
  ObjectStore a(2), b(3);
  EXPECT_FALSE(a.SameValuesAs(b));
}

TEST(ObjectStoreTest, DigestDetectsChanges) {
  ObjectStore a(4), b(4);
  EXPECT_EQ(a.Digest(), b.Digest());
  ASSERT_TRUE(a.Put(2, Value(1), Timestamp(1, 0)).ok());
  EXPECT_NE(a.Digest(), b.Digest());
  ASSERT_TRUE(b.Put(2, Value(1), Timestamp(1, 0)).ok());
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(ObjectStoreTest, DigestCoversLists) {
  ObjectStore a(1), b(1);
  Value la(Value::List{1, 2});
  Value lb(Value::List{1, 3});
  ASSERT_TRUE(a.Put(0, la, Timestamp(1, 0)).ok());
  ASSERT_TRUE(b.Put(0, lb, Timestamp(1, 0)).ok());
  EXPECT_NE(a.Digest(), b.Digest());
}

// FnvMixNarrow<N> is FnvMix for every word: one that fits in N bytes
// takes the short path, a wider one the fallback. Each N is checked at
// the byte-length edges and at words of every significant length.
template <int kBytes>
void ExpectNarrowMixIsFnvMix(const std::vector<std::uint64_t>& words) {
  const std::uint64_t chains[] = {kFnvOffsetBasis, 0, UINT64_MAX};
  for (std::uint64_t h : chains) {
    for (std::uint64_t x : words) {
      EXPECT_EQ(FnvMixNarrow<kBytes>(h, x), FnvMix(h, x))
          << kBytes << " bytes, x = " << x << ", h = " << h;
    }
  }
}

TEST(FnvTest, NarrowMixIsFnvMix) {
  std::vector<std::uint64_t> words = {
      0, 255, 256, (1ull << 24) - 1, 1ull << 24, (1ull << 32) - 1,
      1ull << 32, UINT64_MAX};
  for (int len = 1; len <= 8; ++len) {
    const int top = 8 * len - 1;
    words.push_back(1ull << top);              // only its top bit
    words.push_back((1ull << top) | 0xa5);     // top bit and low bits
    words.push_back(~0ull >> (64 - 8 * len));  // every bit of len bytes
  }
  ExpectNarrowMixIsFnvMix<1>(words);
  ExpectNarrowMixIsFnvMix<2>(words);
  ExpectNarrowMixIsFnvMix<3>(words);
  ExpectNarrowMixIsFnvMix<4>(words);
  ExpectNarrowMixIsFnvMix<5>(words);
  ExpectNarrowMixIsFnvMix<6>(words);
  ExpectNarrowMixIsFnvMix<7>(words);
  ExpectNarrowMixIsFnvMix<8>(words);
}

TEST(TentativeStoreTest, ReadFallsThroughToMaster) {
  ObjectStore master(3);
  ASSERT_TRUE(master.Put(0, Value(5), Timestamp(1, 0)).ok());
  TentativeStore tent(&master);
  auto r = tent.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().AsScalar(), 5);
  EXPECT_FALSE(tent.HasTentative(0));
}

TEST(TentativeStoreTest, TentativeOverlaysMaster) {
  ObjectStore master(3);
  ASSERT_TRUE(master.Put(0, Value(5), Timestamp(1, 0)).ok());
  TentativeStore tent(&master);
  ASSERT_TRUE(tent.WriteTentative(0, Value(50), Timestamp(2, 1)).ok());
  EXPECT_TRUE(tent.HasTentative(0));
  EXPECT_EQ(tent.Read(0).value().AsScalar(), 50);
  // The master version is untouched.
  EXPECT_EQ(master.GetUnchecked(0).AsScalar(), 5);
}

TEST(TentativeStoreTest, DiscardRestoresMasterView) {
  ObjectStore master(2);
  TentativeStore tent(&master);
  ASSERT_TRUE(tent.WriteTentative(1, Value(9), Timestamp(1, 1)).ok());
  EXPECT_EQ(tent.TentativeCount(), 1u);
  tent.DiscardTentative();
  EXPECT_EQ(tent.TentativeCount(), 0u);
  EXPECT_EQ(tent.Read(1).value().AsScalar(), 0);
}

TEST(TentativeStoreTest, WriteTentativeOutOfRange) {
  ObjectStore master(1);
  TentativeStore tent(&master);
  EXPECT_TRUE(tent.WriteTentative(5, Value(1), Timestamp(1, 0))
                  .IsNotFound());
}

TEST(TentativeStoreTest, TentativeIdsSorted) {
  ObjectStore master(10);
  TentativeStore tent(&master);
  for (ObjectId oid : {7, 2, 5}) {
    ASSERT_TRUE(
        tent.WriteTentative(oid, Value(1), Timestamp(1, 0)).ok());
  }
  EXPECT_EQ(tent.TentativeIds(), (std::vector<ObjectId>{2, 5, 7}));
}

}  // namespace
}  // namespace tdr
