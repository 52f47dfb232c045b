#include "replication/batch_shipper.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/update_batch.h"
#include "replication/cluster.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "txn/program.h"

namespace tdr {
namespace {

UpdateRecord Rec(ObjectId oid, std::uint64_t old_c, std::uint64_t new_c,
                 std::int64_t value) {
  UpdateRecord rec;
  rec.txn = new_c;
  rec.oid = oid;
  rec.old_ts = Timestamp(old_c, 0);
  rec.new_ts = Timestamp(new_c, 0);
  rec.new_value = Value(value);
  rec.origin = 0;
  return rec;
}

TEST(UpdateBatchBuilderTest, CoalescingCompactsUpdateChains) {
  UpdateBatchBuilder builder;
  builder.Add(Rec(7, 0, 1, 10), /*coalesce=*/true);
  builder.Add(Rec(9, 0, 2, 20), /*coalesce=*/true);
  builder.Add(Rec(7, 1, 3, 30), /*coalesce=*/true);  // chain hop on oid 7
  EXPECT_EQ(builder.size(), 2u);
  EXPECT_EQ(builder.coalesced(), 1u);
  UpdateBatch batch;
  builder.TakeInto(0, 1, 1, SimTime::Zero(), &batch);
  // The compacted record spans the whole chain: first pre-image, last
  // post-image — the receiver's timestamp-match sees one t0 -> t3 hop.
  EXPECT_EQ(batch.updates[0].oid, 7u);
  EXPECT_EQ(batch.updates[0].old_ts, Timestamp(0, 0));
  EXPECT_EQ(batch.updates[0].new_ts, Timestamp(3, 0));
  EXPECT_EQ(batch.updates[0].new_value, Value(30));
  EXPECT_EQ(batch.coalesced, 1u);
  // TakeInto resets the builder (and its compaction index).
  EXPECT_TRUE(builder.empty());
  builder.Add(Rec(7, 3, 4, 40), true);
  EXPECT_EQ(builder.size(), 1u);
  EXPECT_EQ(builder.coalesced(), 0u);
}

TEST(UpdateBatchBuilderTest, NoCoalesceKeepsEveryRecord) {
  UpdateBatchBuilder builder;
  builder.Add(Rec(7, 0, 1, 10), /*coalesce=*/false);
  builder.Add(Rec(7, 1, 2, 20), /*coalesce=*/false);
  EXPECT_EQ(builder.size(), 2u);
  EXPECT_EQ(builder.coalesced(), 0u);
}

class BatchShipperTest : public ::testing::Test {
 protected:
  BatchShipperTest() {
    Cluster::Options opts;
    opts.num_nodes = 3;
    opts.db_size = 100;
    cluster_ = std::make_unique<Cluster>(opts);
  }

  BatchShipper::Options WindowOptions(SimTime window, std::size_t cap) {
    BatchShipper::Options o;
    o.flush_window = window;
    o.max_batch_updates = cap;
    return o;
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<UpdateBatch> delivered_;
};

TEST_F(BatchShipperTest, WindowFlushShipsOneCoalescedBatch) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Millis(50), 0),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10)});
  shipper.Enqueue(0, 1, {Rec(7, 1, 2, 20), Rec(8, 0, 3, 30)});
  EXPECT_EQ(shipper.PendingUpdates(), 2u);  // oid 7 coalesced
  cluster_->sim().Run();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].origin, 0u);
  EXPECT_EQ(delivered_[0].dest, 1u);
  EXPECT_EQ(delivered_[0].seq, 1u);
  EXPECT_EQ(delivered_[0].size(), 2u);
  EXPECT_EQ(delivered_[0].coalesced, 1u);
  EXPECT_EQ(shipper.batches_shipped(), 1u);
  EXPECT_EQ(shipper.updates_shipped(), 2u);
  EXPECT_EQ(shipper.updates_coalesced(), 1u);
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
  EXPECT_EQ(cluster_->metrics().Get("batch.shipped{stream=test}"), 1u);
}

TEST_F(BatchShipperTest, SizeCapFlushesImmediately) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Seconds(100), 2),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10), Rec(8, 0, 2, 20)});
  cluster_->sim().Run();  // no 100s window wait: the cap already fired
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_LT(cluster_->sim().Now(), SimTime::Seconds(1));
}

TEST_F(BatchShipperTest, StreamsAreIndependentAndSequenced) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Millis(10), 0),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10)});
  shipper.Enqueue(0, 2, {Rec(7, 0, 1, 10)});
  shipper.Enqueue(1, 2, {Rec(9, 0, 2, 20)});
  cluster_->sim().Run();
  EXPECT_EQ(delivered_.size(), 3u);
  delivered_.clear();
  shipper.Enqueue(0, 1, {Rec(7, 1, 5, 50)});
  cluster_->sim().Run();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].seq, 2u);  // per-stream sequence advanced
}

TEST_F(BatchShipperTest, FlushAllDrainsPendingStreams) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Seconds(100), 0),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10)});
  shipper.Enqueue(2, 0, {Rec(8, 0, 2, 20)});
  shipper.FlushAll();
  cluster_->sim().Run();
  EXPECT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
}

// Edge case: flush window of 0 with a size cap of 1 — no timer is ever
// armed; the cap alone must ship every enqueued update exactly once,
// synchronously with its Enqueue.
TEST_F(BatchShipperTest, ZeroWindowCapOneShipsEveryUpdateExactlyOnce) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Zero(), 1),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10)});
  shipper.Enqueue(0, 1, {Rec(8, 0, 2, 20)});
  shipper.Enqueue(0, 1, {Rec(9, 0, 3, 30)});
  // Each enqueue hit the cap and flushed immediately — nothing pending,
  // nothing waiting on a (nonexistent) window event.
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
  EXPECT_EQ(shipper.batches_shipped(), 3u);
  cluster_->sim().Run();  // delivery only; no further flushes
  ASSERT_EQ(delivered_.size(), 3u);
  std::uint64_t total = 0;
  for (const UpdateBatch& b : delivered_) total += b.size();
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(shipper.updates_shipped(), 3u);
  EXPECT_EQ(delivered_[0].updates[0].oid, 7u);
  EXPECT_EQ(delivered_[1].updates[0].oid, 8u);
  EXPECT_EQ(delivered_[2].updates[0].oid, 9u);
  // Per-stream sequence numbers stay dense: exactly-once, no re-ship.
  EXPECT_EQ(delivered_[0].seq, 1u);
  EXPECT_EQ(delivered_[1].seq, 2u);
  EXPECT_EQ(delivered_[2].seq, 3u);
}

// Cap 1 with a multi-record Enqueue: the cap is tested after the whole
// transaction's records are appended (documented overshoot), so the
// batch ships once carrying all of them — never one per record, never
// a leftover.
TEST_F(BatchShipperTest, CapOneMultiRecordEnqueueShipsOneBatch) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Zero(), 1),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10), Rec(8, 0, 2, 20), Rec(9, 0, 3, 30)});
  EXPECT_EQ(shipper.batches_shipped(), 1u);
  EXPECT_EQ(shipper.updates_shipped(), 3u);
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
  cluster_->sim().Run();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].size(), 3u);
}

// Window 0 AND cap 0 is per-commit shipping: each Enqueue ships at
// once as one batch, however many records it carries, so nothing is
// ever pending and FlushAll has nothing to do.
TEST_F(BatchShipperTest, ZeroWindowZeroCapShipsEachEnqueueAtOnce) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Zero(), 0),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(0, 1, {Rec(7, 0, 1, 10)});
  EXPECT_EQ(shipper.batches_shipped(), 1u);
  shipper.Enqueue(0, 2, {Rec(8, 0, 2, 20), Rec(9, 0, 3, 30)});
  EXPECT_EQ(shipper.batches_shipped(), 2u);
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
  shipper.FlushAll();  // every builder is already empty: no-op
  EXPECT_EQ(shipper.batches_shipped(), 2u);
  cluster_->sim().Run();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0].dest, 1u);
  EXPECT_EQ(delivered_[0].size(), 1u);
  EXPECT_EQ(delivered_[1].dest, 2u);
  EXPECT_EQ(delivered_[1].size(), 2u);
  EXPECT_EQ(shipper.updates_shipped(), 3u);
  EXPECT_EQ(shipper.PendingUpdates(), 0u);
}

TEST_F(BatchShipperTest, SelfAndEmptyEnqueuesAreIgnored) {
  BatchShipper shipper(
      &cluster_->sim(), &cluster_->net(), cluster_->size(), "test",
      &cluster_->metrics(), WindowOptions(SimTime::Millis(10), 0),
      [&](const UpdateBatch& b) { delivered_.push_back(b); });
  shipper.Enqueue(1, 1, {Rec(7, 0, 1, 10)});  // self-send
  shipper.Enqueue(0, 1, {});                  // empty
  cluster_->sim().Run();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(shipper.batches_shipped(), 0u);
}

// End-to-end: a batched lazy-group cluster reaches the same replicated
// state as per-commit shipping for a conflict-free workload.
TEST(BatchedSchemeTest, LazyGroupBatchedConvergesToUnbatchedState) {
  auto run = [](SimTime window) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 50;
    copts.num_shards = 5;
    copts.action_time = SimTime::Millis(1);
    Cluster cluster(copts);
    LazyGroupScheme::Options sopts;
    sopts.batch.flush_window = window;
    LazyGroupScheme scheme(&cluster, sopts);
    // Disjoint writes from two origins — nothing to reconcile.
    for (int i = 0; i < 10; ++i) {
      Program p;
      p.Add(Op::Write(i, 100 + i));
      scheme.Submit(0, p, nullptr);
      Program q;
      q.Add(Op::Write(25 + i, 200 + i));
      scheme.Submit(1, q, nullptr);
    }
    cluster.sim().Run();
    scheme.FlushAllBatches();
    cluster.sim().Run();
    EXPECT_TRUE(cluster.Converged());
    EXPECT_EQ(scheme.reconciliations(), 0u);
    std::vector<std::int64_t> values;
    for (ObjectId oid = 0; oid < copts.db_size; ++oid) {
      const Value& v = cluster.node(2)->store().GetUnchecked(oid).value;
      values.push_back(v.AsScalar());
    }
    return values;
  };
  EXPECT_EQ(run(SimTime::Zero()), run(SimTime::Millis(20)));
}

TEST(BatchedSchemeTest, LazyMasterBatchedRefreshesSlaves) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 30;
  copts.num_shards = 3;
  copts.action_time = SimTime::Millis(1);
  Cluster cluster(copts);
  std::vector<NodeId> all{0, 1, 2};
  Ownership ownership = Ownership::RoundRobin(copts.db_size, all);
  LazyMasterScheme::Options sopts;
  sopts.batch.flush_window = SimTime::Millis(20);
  LazyMasterScheme scheme(&cluster, &ownership, sopts);
  ASSERT_NE(scheme.batch_shipper(), nullptr);
  for (int i = 0; i < 10; ++i) {
    Program p;
    p.Add(Op::Write(i, 100 + i));
    scheme.Submit(0, p, nullptr);
  }
  cluster.sim().Run();
  scheme.FlushAllBatches();
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_GT(scheme.slave_updates_applied(), 0u);
  EXPECT_GT(scheme.batch_shipper()->batches_shipped(), 0u);
}

// The schemes' default options are per-commit shipping: each committed
// transaction ships exactly one batch to every remote node at commit —
// the paper's one replica-update transaction per commit per
// destination — and nothing is ever parked or coalesced.
TEST(PerCommitShippingTest, LazyGroupShipsOneBatchPerCommitPerRemoteNode) {
  Cluster::Options copts;
  copts.num_nodes = 4;
  copts.db_size = 40;
  copts.action_time = SimTime::Millis(1);
  Cluster cluster(copts);
  LazyGroupScheme scheme(&cluster);
  BatchShipper* shipper = scheme.batch_shipper();
  const std::uint64_t remotes = copts.num_nodes - 1;
  std::uint64_t commits = 0;
  for (int i = 0; i < 12; ++i) {
    Program p;
    p.Add(Op::Write(i, 100 + i));
    p.Add(Op::Write(20 + i, 200 + i));
    scheme.Submit(i % copts.num_nodes, p, [&](const TxnResult& r) {
      ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
      ++commits;
      EXPECT_EQ(shipper->batches_shipped(), commits * remotes);
      EXPECT_EQ(shipper->PendingUpdates(), 0u);
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(commits, 12u);
  EXPECT_EQ(shipper->updates_shipped(), commits * 2 * remotes);
  EXPECT_EQ(shipper->updates_coalesced(), 0u);
  EXPECT_TRUE(cluster.Converged());
}

// Lazy master ships per master run: a transaction whose writes landed
// at k masters ships k batches to every node other than each master.
TEST(PerCommitShippingTest, LazyMasterShipsOneBatchPerMasterRunPerNode) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 30;
  copts.action_time = SimTime::Millis(1);
  Cluster cluster(copts);
  std::vector<NodeId> all{0, 1, 2};
  Ownership ownership = Ownership::RoundRobin(copts.db_size, all);
  LazyMasterScheme scheme(&cluster, &ownership);
  BatchShipper* shipper = scheme.batch_shipper();
  const std::uint64_t others = copts.num_nodes - 1;
  // Masters are oid % 3: one, two, one, three and one master runs.
  const std::vector<std::vector<ObjectId>> writes{
      {0, 3}, {6, 7}, {10, 13}, {14, 15, 16}, {20}};
  std::uint64_t expected = 0;
  std::uint64_t commits = 0;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    Program p;
    std::set<NodeId> masters;
    for (ObjectId oid : writes[i]) {
      p.Add(Op::Write(oid, 7));
      masters.insert(ownership.OwnerOf(oid));
    }
    const std::uint64_t runs = masters.size();
    scheme.Submit(static_cast<NodeId>(i % copts.num_nodes), p,
                  [&, runs](const TxnResult& r) {
                    ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
                    ++commits;
                    expected += runs * others;
                    EXPECT_EQ(shipper->batches_shipped(), expected);
                    EXPECT_EQ(shipper->PendingUpdates(), 0u);
                  });
  }
  cluster.sim().Run();
  EXPECT_EQ(commits, writes.size());
  EXPECT_EQ(expected, 8 * others);
  EXPECT_EQ(shipper->updates_coalesced(), 0u);
  EXPECT_TRUE(cluster.Converged());
}

}  // namespace
}  // namespace tdr
