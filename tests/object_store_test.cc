#include "storage/object_store.h"

#include <gtest/gtest.h>

#include "storage/tentative_store.h"

namespace tdr {
namespace {

TEST(ObjectStoreTest, ReplicaSlotIs32Bytes) {
  // Every node holds one slot per object (§2): a 16-byte Value (the
  // scalar inline, a list behind a pointer) and a 16-byte Timestamp.
  EXPECT_EQ(sizeof(Value), 16u);
  EXPECT_EQ(sizeof(StoredObject), 32u);
}

TEST(ObjectStoreTest, InitialStateAllZero) {
  ObjectStore store(5);
  EXPECT_EQ(store.size(), 5u);
  for (ObjectId oid = 0; oid < 5; ++oid) {
    auto obj = store.Get(oid);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj.value().get().value.AsScalar(), 0);
    EXPECT_TRUE(obj.value().get().ts.IsZero());
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
  EXPECT_EQ(obj.value.AsScalar(), 99);
  EXPECT_EQ(obj.ts, Timestamp(5, 0));
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
  EXPECT_EQ(store.GetUnchecked(0).value.AsScalar(), 20);
  EXPECT_EQ(store.GetUnchecked(0).ts, Timestamp(7, 2));
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
  EXPECT_EQ(store.GetUnchecked(0).value.AsScalar(), 10);
  EXPECT_EQ(store.GetUnchecked(0).ts, Timestamp(5, 0));
}

TEST(ObjectStoreTest, ApplyIfTimestampMatchesFromZero) {
  ObjectStore store(1);
  Status s = store.ApplyIfTimestampMatches(0, Value(5), Timestamp::Zero(),
                                           Timestamp(1, 0));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(store.GetUnchecked(0).value.AsScalar(), 5);
}

TEST(ObjectStoreTest, ApplyIfNewerAppliesNewer) {
  ObjectStore store(1);
  ASSERT_TRUE(store.Put(0, Value(1), Timestamp(2, 0)).ok());
  bool applied = false;
  ASSERT_TRUE(
      store.ApplyIfNewer(0, Value(2), Timestamp(3, 0), &applied).ok());
  EXPECT_TRUE(applied);
  EXPECT_EQ(store.GetUnchecked(0).value.AsScalar(), 2);
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
  EXPECT_EQ(store.GetUnchecked(0).value.AsScalar(), 9);
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
  EXPECT_EQ(a.GetUnchecked(0).value.AsScalar(), 2);
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

TEST(TentativeStoreTest, ReadFallsThroughToMaster) {
  ObjectStore master(3);
  ASSERT_TRUE(master.Put(0, Value(5), Timestamp(1, 0)).ok());
  TentativeStore tent(&master);
  auto r = tent.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value.AsScalar(), 5);
  EXPECT_FALSE(tent.HasTentative(0));
}

TEST(TentativeStoreTest, TentativeOverlaysMaster) {
  ObjectStore master(3);
  ASSERT_TRUE(master.Put(0, Value(5), Timestamp(1, 0)).ok());
  TentativeStore tent(&master);
  ASSERT_TRUE(tent.WriteTentative(0, Value(50), Timestamp(2, 1)).ok());
  EXPECT_TRUE(tent.HasTentative(0));
  EXPECT_EQ(tent.Read(0).value().value.AsScalar(), 50);
  // The master version is untouched.
  EXPECT_EQ(master.GetUnchecked(0).value.AsScalar(), 5);
}

TEST(TentativeStoreTest, DiscardRestoresMasterView) {
  ObjectStore master(2);
  TentativeStore tent(&master);
  ASSERT_TRUE(tent.WriteTentative(1, Value(9), Timestamp(1, 1)).ok());
  EXPECT_EQ(tent.TentativeCount(), 1u);
  tent.DiscardTentative();
  EXPECT_EQ(tent.TentativeCount(), 0u);
  EXPECT_EQ(tent.Read(1).value().value.AsScalar(), 0);
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
