#include "storage/shard_map.h"

#include <gtest/gtest.h>

#include <vector>

#include "replication/cluster.h"
#include "replication/replica_applier.h"
#include "storage/object_store.h"
#include "txn/lock_manager.h"

namespace tdr {
namespace {

TEST(ShardMapTest, PartitionCoversKeySpaceContiguously) {
  ShardMap shards(100, 7);
  EXPECT_EQ(shards.num_shards(), 7u);
  std::uint64_t total = 0;
  for (ShardId s = 0; s < shards.num_shards(); ++s) {
    EXPECT_EQ(shards.ShardEnd(s) - shards.ShardBegin(s), shards.ShardSize(s));
    total += shards.ShardSize(s);
    if (s > 0) {
      EXPECT_EQ(shards.ShardBegin(s), shards.ShardEnd(s - 1));
    }
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(shards.ShardBegin(0), 0u);
  EXPECT_EQ(shards.ShardEnd(6), 100u);
}

TEST(ShardMapTest, ShardOfMatchesRanges) {
  for (std::uint64_t db : {1ull, 5ull, 64ull, 100ull, 1000ull}) {
    for (std::uint32_t n : {1u, 2u, 3u, 7u, 64u}) {
      ShardMap shards(db, n);
      for (ObjectId oid = 0; oid < db; ++oid) {
        ShardId s = shards.ShardOf(oid);
        EXPECT_GE(oid, shards.ShardBegin(s));
        EXPECT_LT(oid, shards.ShardEnd(s));
      }
    }
  }
}

TEST(ShardMapTest, ShardSizesDifferByAtMostOne) {
  ShardMap shards(1000, 64);
  std::uint64_t lo = shards.ShardSize(0), hi = shards.ShardSize(0);
  for (ShardId s = 0; s < shards.num_shards(); ++s) {
    lo = std::min(lo, shards.ShardSize(s));
    hi = std::max(hi, shards.ShardSize(s));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardMapTest, ClampsShardCountToDbSize) {
  ShardMap shards(5, 64);
  EXPECT_EQ(shards.num_shards(), 5u);
  ShardMap zero(5, 0);
  EXPECT_EQ(zero.num_shards(), 1u);
}

TEST(ShardMapTest, SingleShardIsWholeKeySpace) {
  ShardMap shards(123, 1);
  EXPECT_EQ(shards.ShardBegin(0), 0u);
  EXPECT_EQ(shards.ShardEnd(0), 123u);
  for (ObjectId oid = 0; oid < 123; ++oid) {
    EXPECT_EQ(shards.ShardOf(oid), 0u);
  }
}

TEST(ObjectStoreShardTest, ShardDigestLocalizesChanges) {
  ShardMap shards(30, 3);
  ObjectStore a(30), b(30);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(a.ShardDigest(shards, s), b.ShardDigest(shards, s));
  }
  // Mutate one object in shard 1: only shard 1's digest moves.
  ASSERT_TRUE(b.Put(15, Value(42), Timestamp(1, 0)).ok());
  EXPECT_EQ(a.ShardDigest(shards, 0), b.ShardDigest(shards, 0));
  EXPECT_NE(a.ShardDigest(shards, 1), b.ShardDigest(shards, 1));
  EXPECT_EQ(a.ShardDigest(shards, 2), b.ShardDigest(shards, 2));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(ShardedLockManagerTest, SemanticsIdenticalAcrossShardCounts) {
  // The same acquire/release script must behave identically with one
  // table and with per-shard tables.
  ShardMap shards(100, 8);
  WaitForGraph g1, g8;
  LockManager plain(0, 100, &g1);
  LockManager sharded(0, 100, &g8, true, &shards);
  EXPECT_EQ(sharded.num_shards(), 8u);
  for (LockManager* lm : {&plain, &sharded}) {
    EXPECT_EQ(lm->Acquire(1, 10, nullptr),
              LockManager::AcquireOutcome::kGranted);
    EXPECT_EQ(lm->Acquire(1, 90, nullptr),
              LockManager::AcquireOutcome::kGranted);
    bool granted = false;
    EXPECT_EQ(lm->Acquire(2, 10, [&] { granted = true; }),
              LockManager::AcquireOutcome::kQueued);
    EXPECT_EQ(lm->LockedObjectCount(), 2u);
    EXPECT_EQ(lm->WaiterCount(), 1u);
    lm->Release(1, 10);
    EXPECT_TRUE(granted);
    EXPECT_TRUE(lm->Holds(2, 10));
    lm->ReleaseAll(1);
    lm->ReleaseAll(2);
    EXPECT_EQ(lm->LockedObjectCount(), 0u);
  }
}

TEST(ShardedLockManagerTest, ShardWaitsAttributeToTheRightShard) {
  ShardMap shards(100, 4);  // shard size 25
  WaitForGraph graph;
  LockManager locks(0, 100, &graph, true, &shards);
  ASSERT_EQ(locks.Acquire(1, 30, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(2, 30, [] {}),
            LockManager::AcquireOutcome::kQueued);  // shard 1 wait
  ASSERT_EQ(locks.Acquire(1, 80, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks.Acquire(3, 80, [] {}),
            LockManager::AcquireOutcome::kQueued);  // shard 3 wait
  EXPECT_EQ(locks.shard_waits(0), 0u);
  EXPECT_EQ(locks.shard_waits(1), 1u);
  EXPECT_EQ(locks.shard_waits(2), 0u);
  EXPECT_EQ(locks.shard_waits(3), 1u);
}

TEST(ClusterShardTest, ShardDigestsAgreeAcrossFreshReplicas) {
  Cluster::Options opts;
  opts.num_nodes = 3;
  opts.db_size = 64;
  opts.num_shards = 4;
  Cluster cluster(opts);
  EXPECT_EQ(cluster.shards().num_shards(), 4u);
  for (ShardId s = 0; s < 4; ++s) {
    std::vector<std::uint64_t> digests = cluster.ShardDigests(s);
    ASSERT_EQ(digests.size(), 3u);
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
  }
}

TEST(ShardedApplierTest, MultiShardBatchAppliesAtomicallyPerShard) {
  Cluster::Options opts;
  opts.num_nodes = 2;
  opts.db_size = 40;
  opts.num_shards = 4;  // shard size 10
  Cluster cluster(opts);

  // One batch spanning three shards; per-shard apply must install every
  // record, fire done exactly once with the aggregated report, and
  // leave no locks behind.
  std::vector<UpdateRecord> records;
  for (ObjectId oid : {3u, 13u, 14u, 33u}) {
    UpdateRecord rec;
    rec.txn = 1;
    rec.oid = oid;
    rec.old_ts = Timestamp();
    rec.new_ts = Timestamp(5, 0);
    rec.new_value = Value(static_cast<std::int64_t>(100 + oid));
    rec.origin = 0;
    records.push_back(rec);
  }
  ReplicaApplier applier(&cluster.sim(), &cluster.executor(),
                         &cluster.metrics());
  ReplicaApplier::Options aopts;
  aopts.mode = ReplicaApplier::Mode::kNewerWins;
  aopts.action_time = SimTime::Millis(1);
  aopts.shards = &cluster.shards();
  int done_calls = 0;
  ReplicaApplier::Report final_report;
  applier.Apply(cluster.node(1), records, aopts,
                [&](const ReplicaApplier::Report& r) {
                  ++done_calls;
                  final_report = r;
                });
  cluster.sim().Run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(final_report.applied, 4u);
  EXPECT_FALSE(final_report.gave_up);
  for (const UpdateRecord& rec : records) {
    EXPECT_EQ(cluster.node(1)->store().GetUnchecked(rec.oid).value,
              rec.new_value);
  }
  EXPECT_EQ(cluster.node(1)->locks().LockedObjectCount(), 0u);
  // Per-shard counters: shards 0, 1, 3 got 1, 2, 1 applies.
  EXPECT_EQ(cluster.metrics().Get("replica.shard_applied{shard=0}"), 1u);
  EXPECT_EQ(cluster.metrics().Get("replica.shard_applied{shard=1}"), 2u);
  EXPECT_EQ(cluster.metrics().Get("replica.shard_applied{shard=3}"), 1u);
}

std::vector<UpdateRecord> ShardTestBatch(const std::vector<ObjectId>& oids,
                                         Timestamp new_ts) {
  std::vector<UpdateRecord> records;
  records.reserve(oids.size());
  for (ObjectId oid : oids) {
    UpdateRecord rec;
    rec.txn = 1;
    rec.oid = oid;
    rec.new_ts = new_ts;
    rec.new_value = Value(static_cast<std::int64_t>(100 + oid));
    rec.origin = 0;
    records.push_back(rec);
  }
  return records;
}

// Two multi-shard batches in flight on one node at once, each with its
// own pooled fan-in. One shard of the first waits behind a local
// transaction's lock, so the second batch finishes first; each done
// fires once, with its own batch's aggregate.
TEST(ShardedApplierTest, ConcurrentBatchesAggregateSeparately) {
  Cluster::Options opts;
  opts.num_nodes = 2;
  opts.db_size = 40;
  opts.num_shards = 4;  // shard size 10
  Cluster cluster(opts);
  ObjectStore& store = cluster.node(1)->store();
  LockManager& locks = cluster.node(1)->locks();
  // Object 33 already holds a newer version: the first batch's update
  // to it is stale.
  ASSERT_TRUE(store.Put(33, Value(7), Timestamp(9, 0)).ok());
  const TxnId local = cluster.executor().AllocateTxnId();
  ASSERT_EQ(locks.Acquire(local, 13, nullptr),
            LockManager::AcquireOutcome::kGranted);

  ReplicaApplier applier(&cluster.sim(), &cluster.executor(),
                         &cluster.metrics());
  ReplicaApplier::Options aopts;
  aopts.mode = ReplicaApplier::Mode::kNewerWins;
  aopts.action_time = SimTime::Millis(1);
  aopts.shards = &cluster.shards();
  int first_calls = 0;
  int second_calls = 0;
  ReplicaApplier::Report first;
  ReplicaApplier::Report second;
  applier.Apply(cluster.node(1), ShardTestBatch({3, 13, 33}, Timestamp(5, 0)),
                aopts, [&](const ReplicaApplier::Report& r) {
                  ++first_calls;
                  first = r;
                });
  applier.Apply(cluster.node(1), ShardTestBatch({5, 25}, Timestamp(6, 0)),
                aopts, [&](const ReplicaApplier::Report& r) {
                  ++second_calls;
                  second = r;
                });
  cluster.sim().Run();
  // Shard 1 of the first batch is still queued behind `local`.
  EXPECT_EQ(first_calls, 0);
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(second.applied, 2u);
  EXPECT_EQ(second.stale, 0u);
  EXPECT_EQ(applier.ActiveCount(), 1u);

  locks.ReleaseAll(local);
  cluster.sim().Run();
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(first.applied, 2u);
  EXPECT_EQ(first.stale, 1u);
  EXPECT_EQ(store.GetUnchecked(13).value, Value(113));
  EXPECT_EQ(store.GetUnchecked(33).value, Value(7));
  EXPECT_EQ(applier.ActiveCount(), 0u);
  EXPECT_EQ(locks.LockedObjectCount(), 0u);
}

// A done that starts another multi-shard apply on the same applier: the
// fan-in is recycled before done runs, so the second apply reuses it.
// Both complete with their own reports and leave no locks.
TEST(ShardedApplierTest, DoneCanStartAnotherShardedApply) {
  Cluster::Options opts;
  opts.num_nodes = 2;
  opts.db_size = 40;
  opts.num_shards = 4;
  Cluster cluster(opts);
  ReplicaApplier applier(&cluster.sim(), &cluster.executor(),
                         &cluster.metrics());
  ReplicaApplier::Options aopts;
  aopts.mode = ReplicaApplier::Mode::kNewerWins;
  aopts.action_time = SimTime::Millis(1);
  aopts.shards = &cluster.shards();
  // Object 24's update in the second batch is older than the first's.
  std::vector<UpdateRecord> second_batch =
      ShardTestBatch({4, 24, 34}, Timestamp(7, 0));
  second_batch[1].new_ts = Timestamp(3, 0);
  int first_calls = 0;
  int second_calls = 0;
  ReplicaApplier::Report second;
  auto start_second = [&](const ReplicaApplier::Report& r) {
    ++first_calls;
    EXPECT_EQ(r.applied, 2u);
    EXPECT_EQ(r.stale, 0u);
    applier.Apply(cluster.node(1), second_batch, aopts,
                  [&](const ReplicaApplier::Report& r2) {
                    ++second_calls;
                    second = r2;
                  });
  };
  applier.Apply(cluster.node(1), ShardTestBatch({4, 24}, Timestamp(5, 0)),
                aopts, start_second);
  cluster.sim().Run();
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(second.applied, 2u);
  EXPECT_EQ(second.stale, 1u);
  const ObjectStore& store = cluster.node(1)->store();
  EXPECT_EQ(store.GetUnchecked(4).ts, Timestamp(7, 0));
  EXPECT_EQ(store.GetUnchecked(24).ts, Timestamp(5, 0));
  EXPECT_EQ(store.GetUnchecked(34).ts, Timestamp(7, 0));
  EXPECT_EQ(applier.ActiveCount(), 0u);
  EXPECT_EQ(cluster.node(1)->locks().LockedObjectCount(), 0u);
}

}  // namespace
}  // namespace tdr
