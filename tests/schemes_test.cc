#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"

namespace tdr {
namespace {

Cluster::Options SmallCluster(std::uint32_t nodes) {
  Cluster::Options o;
  o.num_nodes = nodes;
  o.db_size = 32;
  o.action_time = SimTime::Millis(10);
  o.seed = 7;
  return o;
}

// ---------------------------------------------------------------------------
// Eager group
// ---------------------------------------------------------------------------

TEST(EagerGroupTest, UpdatesAllReplicasInOneTransaction) {
  Cluster cluster(SmallCluster(3));
  EagerGroupScheme scheme(&cluster);
  std::optional<TxnResult> result;
  scheme.Submit(1, Program({Op::Write(5, 77), Op::Add(6, 3)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(5).AsScalar(), 77);
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(6).AsScalar(), 3);
  }
  EXPECT_TRUE(cluster.Converged());
  // Eq. (6): duration = Actions x Nodes x Action_Time = 2 x 3 x 10ms.
  EXPECT_EQ(result->Duration(), SimTime::Millis(60));
}

TEST(EagerGroupTest, TableOneMetadata) {
  Cluster cluster(SmallCluster(3));
  EagerGroupScheme scheme(&cluster);
  EXPECT_TRUE(scheme.eager());
  EXPECT_TRUE(scheme.group_ownership());
  EXPECT_EQ(scheme.TransactionsPerUserUpdate(5), 1u);
  EXPECT_EQ(scheme.name(), "eager-group");
}

TEST(EagerGroupTest, UnavailableWhenAnyNodeDisconnected) {
  Cluster cluster(SmallCluster(3));
  EagerGroupScheme scheme(&cluster);
  cluster.net().SetConnected(2, false);
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(1, 1)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kUnavailable);
  EXPECT_EQ(cluster.metrics().Get("scheme.unavailable"), 1u);
  // Nothing was written anywhere.
  EXPECT_EQ(cluster.node(0)->store().GetUnchecked(1).AsScalar(), 0);
}

TEST(EagerGroupTest, CrossNodeConflictMayDeadlock) {
  // Two transactions updating the same two objects from different nodes
  // in opposite orders: the classic distributed deadlock.
  Cluster cluster(SmallCluster(2));
  EagerGroupScheme scheme(&cluster);
  std::optional<TxnResult> r1, r2;
  scheme.Submit(0, Program({Op::Write(1, 1), Op::Write(2, 1)}),
                [&](const TxnResult& r) { r1 = r; });
  cluster.sim().ScheduleAt(SimTime::Millis(1), [&] {
    scheme.Submit(1, Program({Op::Write(2, 2), Op::Write(1, 2)}),
                  [&](const TxnResult& r) { r2 = r; });
  });
  cluster.sim().Run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->outcome, TxnOutcome::kDeadlock);
  // The survivor's updates reached every replica; state is consistent.
  EXPECT_TRUE(cluster.Converged());
}

TEST(EagerGroupTest, ReadsStayLocal) {
  Cluster cluster(SmallCluster(3));
  EagerGroupScheme scheme(&cluster);
  std::optional<TxnResult> result;
  scheme.Submit(2, Program({Op::Read(4)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  // One read action at one node only: 10ms.
  EXPECT_EQ(result->Duration(), SimTime::Millis(10));
  ASSERT_EQ(result->reads.size(), 1u);
}

// ---------------------------------------------------------------------------
// Eager master
// ---------------------------------------------------------------------------

TEST(EagerMasterTest, UpdatesFlowThroughOwnerToAllReplicas) {
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  EagerMasterScheme scheme(&cluster, &own);
  EXPECT_FALSE(scheme.group_ownership());
  std::optional<TxnResult> result;
  // Object 7 is owned by node 7 % 3 == 1.
  scheme.Submit(0, Program({Op::Write(7, 50)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(7).AsScalar(), 50);
  }
  EXPECT_TRUE(cluster.Converged());
}

TEST(EagerMasterTest, SameObjectWritersSerializeWithoutDeadlock) {
  // "If each transaction updated a single replica, the object-master
  // approach would eliminate all deadlocks": single-object transactions
  // from different origins serialize at the owner.
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  EagerMasterScheme scheme(&cluster, &own);
  int committed = 0;
  for (NodeId origin = 0; origin < 3; ++origin) {
    scheme.Submit(origin, Program({Op::Add(9, 1)}),
                  [&](const TxnResult& r) {
                    EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
                    ++committed;
                  });
  }
  cluster.sim().Run();
  EXPECT_EQ(committed, 3);
  // All three increments survive at every replica.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(9).AsScalar(), 3);
  }
}

TEST(EagerMasterTest, UnavailableWhenOwnerDisconnected) {
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  EagerMasterScheme scheme(&cluster, &own);
  cluster.net().SetConnected(1, false);
  std::optional<TxnResult> result;
  // Object 7's owner (node 1) is down.
  scheme.Submit(0, Program({Op::Write(7, 1)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kUnavailable);
}

// ---------------------------------------------------------------------------
// Lazy group
// ---------------------------------------------------------------------------

TEST(LazyGroupTest, RootCommitsLocallyThenReplicasConverge) {
  Cluster cluster(SmallCluster(3));
  LazyGroupScheme scheme(&cluster);
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(3, 30)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().RunUntil(SimTime::Millis(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  // Lazy: the root transaction took Actions x Action_Time, not x Nodes.
  EXPECT_EQ(result->Duration(), SimTime::Millis(10));
  // Replicas catch up asynchronously.
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.node(2)->store().GetUnchecked(3).AsScalar(), 30);
  EXPECT_EQ(cluster.metrics().Get("replica.applied"), 2u);
  EXPECT_EQ(scheme.reconciliations(), 0u);
}

TEST(LazyGroupTest, TableOneMetadata) {
  Cluster cluster(SmallCluster(3));
  LazyGroupScheme scheme(&cluster);
  EXPECT_FALSE(scheme.eager());
  EXPECT_TRUE(scheme.group_ownership());
  EXPECT_EQ(scheme.TransactionsPerUserUpdate(3), 3u);
}

TEST(LazyGroupTest, ConcurrentUpdatesNeedReconciliation) {
  // Nodes 0 and 1 update the same object at the same instant; each
  // replica update arrives carrying an old timestamp that no longer
  // matches — both sides detect the danger (§4).
  Cluster cluster(SmallCluster(2));
  LazyGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(5, 100)}), nullptr);
  scheme.Submit(1, Program({Op::Write(5, 200)}), nullptr);
  cluster.sim().Run();
  EXPECT_GE(scheme.reconciliations(), 1u);
  EXPECT_EQ(cluster.metrics().Get("lazy_group.reconciliations"),
            scheme.reconciliations());
  // The databases have diverged — this is the road to system delusion.
  EXPECT_FALSE(cluster.Converged());
  EXPECT_GT(cluster.DivergentSlots(), 0u);
}

TEST(LazyGroupTest, SequentialUpdatesDoNotConflict) {
  Cluster cluster(SmallCluster(3));
  LazyGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(5, 1)}), nullptr);
  cluster.sim().Run();  // full propagation before the next update
  scheme.Submit(1, Program({Op::Write(5, 2)}), nullptr);
  cluster.sim().Run();
  EXPECT_EQ(scheme.reconciliations(), 0u);
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.node(2)->store().GetUnchecked(5).AsScalar(), 2);
}

TEST(LazyGroupTest, DisconnectedNodeQueuesAndConvergesOnReconnect) {
  Cluster cluster(SmallCluster(2));
  LazyGroupScheme scheme(&cluster);
  cluster.net().SetConnected(1, false);
  // Node 1 updates locally while disconnected (the checkbook on the
  // plane); node 0 updates a different object.
  scheme.Submit(1, Program({Op::Write(4, 44)}), nullptr);
  scheme.Submit(0, Program({Op::Write(9, 99)}), nullptr);
  cluster.sim().Run();
  EXPECT_FALSE(cluster.Converged());
  cluster.net().SetConnected(1, true);
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.node(0)->store().GetUnchecked(4).AsScalar(), 44);
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(9).AsScalar(), 99);
  EXPECT_EQ(scheme.reconciliations(), 0u);
}

TEST(LazyGroupTest, DisconnectedConflictDetectedAtReconnect) {
  // Both nodes update the SAME object during the disconnection — the
  // Eq. (17) collision. Reconciliation fires when they re-exchange.
  Cluster cluster(SmallCluster(2));
  LazyGroupScheme scheme(&cluster);
  cluster.net().SetConnected(1, false);
  scheme.Submit(1, Program({Op::Write(4, 11)}), nullptr);
  scheme.Submit(0, Program({Op::Write(4, 22)}), nullptr);
  cluster.sim().Run();
  cluster.net().SetConnected(1, true);
  cluster.sim().Run();
  EXPECT_GE(scheme.reconciliations(), 1u);
}

// A batch window with no size cap and no coalescing: the shape of a
// replication stream drained on a timer.
LazyGroupScheme::Options WindowedShipping(SimTime window) {
  LazyGroupScheme::Options opts;
  opts.batch = {window, 0, false};
  return opts;
}

TEST(LazyGroupBatchingTest, UpdatesShipOnlyAtFlush) {
  Cluster cluster(SmallCluster(3));
  LazyGroupScheme scheme(&cluster, WindowedShipping(SimTime::Seconds(10)));
  scheme.Submit(0, Program({Op::Write(3, 30)}), nullptr);
  cluster.sim().RunUntil(SimTime::Seconds(5));
  // Committed locally, parked on both outbound streams, not yet
  // replicated.
  EXPECT_EQ(cluster.node(0)->store().GetUnchecked(3).AsScalar(), 30);
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(3).AsScalar(), 0);
  EXPECT_EQ(scheme.batch_shipper()->PendingUpdates(), 2u);
  EXPECT_EQ(scheme.batch_shipper()->batches_shipped(), 0u);
  cluster.sim().RunUntil(SimTime::Seconds(11));
  cluster.sim().RunUntil(SimTime::Seconds(12));
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(3).AsScalar(), 30);
  EXPECT_EQ(cluster.node(2)->store().GetUnchecked(3).AsScalar(), 30);
  EXPECT_EQ(scheme.batch_shipper()->PendingUpdates(), 0u);
  EXPECT_EQ(scheme.batch_shipper()->batches_shipped(), 2u);
}

TEST(LazyGroupBatchingTest,
     BatchingWindowCreatesConflictsPromptShippingAvoids) {
  // Node 0 writes X, node 1 writes X one second later. Shipped promptly,
  // the second writer already has the first update and no conflict
  // occurs; batched at 10s, both updates are in flight with stale old
  // timestamps — the batching window IS a self-inflicted disconnection
  // (Eq. 18 with Disconnect_Time = batch window).
  auto run = [](SimTime window) {
    auto cluster = std::make_unique<Cluster>(SmallCluster(2));
    LazyGroupScheme scheme(cluster.get(), WindowedShipping(window));
    scheme.Submit(0, Program({Op::Write(5, 100)}), nullptr);
    cluster->sim().ScheduleAt(SimTime::Seconds(1), [&] {
      scheme.Submit(1, Program({Op::Write(5, 200)}), nullptr);
    });
    cluster->sim().RunUntil(SimTime::Seconds(25));
    scheme.FlushAllBatches();
    cluster->sim().RunUntil(SimTime::Seconds(50));
    return scheme.reconciliations();
  };
  EXPECT_EQ(run(SimTime::Zero()), 0u);
  EXPECT_GE(run(SimTime::Seconds(10)), 1u);
}

TEST(LazyGroupBatchingTest, FlushAllIsIdempotent) {
  Cluster cluster(SmallCluster(2));
  LazyGroupScheme scheme(&cluster, WindowedShipping(SimTime::Seconds(100)));
  scheme.Submit(0, Program({Op::Add(1, 5)}), nullptr);
  cluster.sim().RunUntil(SimTime::Seconds(1));
  scheme.FlushAllBatches();
  scheme.FlushAllBatches();  // nothing left; must not double-ship
  cluster.sim().RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(1).AsScalar(), 5);
  EXPECT_EQ(scheme.batch_shipper()->batches_shipped(), 1u);
  EXPECT_EQ(cluster.metrics().Get("replica.applied"), 1u);
  EXPECT_EQ(scheme.reconciliations(), 0u);
}

// ---------------------------------------------------------------------------
// Lazy master
// ---------------------------------------------------------------------------

TEST(LazyMasterTest, MasterFirstThenSlavesConverge) {
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  LazyMasterScheme scheme(&cluster, &own);
  std::optional<TxnResult> result;
  // Object 8's owner is node 2; transaction originates at node 0.
  scheme.Submit(0, Program({Op::Write(8, 80)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(result->updates.size(), 1u);
  EXPECT_EQ(result->updates[0].origin, 2u);  // installed at the owner
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(8).AsScalar(), 80);
  }
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.metrics().Get("replica.applied"), 2u);
}

TEST(LazyMasterTest, NoReconciliationEverUnderContention) {
  // "lazy-master systems have no reconciliation failures; rather,
  // conflicts are resolved by waiting or deadlock" (§5).
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  LazyMasterScheme scheme(&cluster, &own);
  for (int burst = 0; burst < 5; ++burst) {
    for (NodeId origin = 0; origin < 3; ++origin) {
      scheme.Submit(origin, Program({Op::Add(6, 1), Op::Add(12, 1)}),
                    nullptr);
    }
  }
  cluster.sim().Run();
  EXPECT_EQ(cluster.metrics().Get("replica.conflicts"), 0u);
  EXPECT_TRUE(cluster.Converged());
  // Committed increments all survive (no lost updates at the master).
  auto committed = cluster.executor().committed();
  EXPECT_EQ(cluster.node(0)->store().GetUnchecked(6).AsScalar() +
                cluster.node(0)->store().GetUnchecked(12).AsScalar(),
            static_cast<std::int64_t>(2 * committed));
}

TEST(LazyMasterTest, UnavailableWhenMasterDisconnected) {
  Cluster cluster(SmallCluster(3));
  Ownership own = Ownership::RoundRobin(32, {0, 1, 2});
  LazyMasterScheme scheme(&cluster, &own);
  cluster.net().SetConnected(1, false);
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(7, 1)}),  // owner = node 1
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kUnavailable);
  EXPECT_EQ(cluster.metrics().Get("scheme.unavailable"), 1u);
}

TEST(LazyMasterTest, UnavailableWhenOriginDisconnected) {
  // "Lazy-Master replication is not appropriate for mobile
  // applications" — a disconnected node cannot even originate.
  Cluster cluster(SmallCluster(2));
  Ownership own = Ownership::RoundRobin(32, {0});
  LazyMasterScheme scheme(&cluster, &own);
  cluster.net().SetConnected(1, false);
  std::optional<TxnResult> result;
  scheme.Submit(1, Program({Op::Write(0, 1)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kUnavailable);
}

TEST(LazyMasterTest, SlavesConvergeDespiteRapidUpdates) {
  // Many quick updates to one object: slaves may receive refreshes out
  // of order (different masters' broadcasts interleave) but newer-wins
  // guarantees convergence to the master's final state.
  Cluster cluster(SmallCluster(4));
  Ownership own = Ownership::SingleMaster(32, 0);
  LazyMasterScheme scheme(&cluster, &own);
  for (int i = 1; i <= 10; ++i) {
    scheme.Submit(i % 4, Program({Op::Write(3, i * 10)}), nullptr);
  }
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
  // Final value equals the master's value.
  auto final_value =
      cluster.node(0)->store().GetUnchecked(3).AsScalar();
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(cluster.node(n)->store().GetUnchecked(3).AsScalar(),
              final_value);
  }
}

}  // namespace
}  // namespace tdr
