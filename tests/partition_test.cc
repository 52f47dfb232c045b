// Partition and failure-pattern scenarios across schemes: what happens
// when the cluster splits, heals, and splits again. Partitions here are
// REAL link-level cuts (fault::FaultInjector severs group-to-complement
// links): both sides stay up and keep working against the nodes they
// can reach, and cross-split traffic parks on the cut links until heal.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "fault/fault_injector.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/quorum.h"
#include "txn/replay_validator.h"

namespace tdr {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;

Cluster::Options FiveNodes() {
  Cluster::Options o;
  o.num_nodes = 5;
  o.db_size = 32;
  o.action_time = SimTime::Millis(5);
  o.seed = 3;
  return o;
}

TEST(PartitionTest, QuorumMajoritySideStaysLive) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  FaultInjector injector(&cluster, FaultPlan(), Rng(3, 777));
  // Link-level partition: {0,1,2} vs {3,4}. Both sides are up; only the
  // cross-split links are cut.
  injector.StartPartition("split", {3, 4});
  int committed = 0, unavailable = 0;
  for (int i = 0; i < 10; ++i) {
    scheme.Submit(static_cast<NodeId>(i % 3), Program({Op::Add(1, 1)}),
                  [&](const TxnResult& r) {
                    if (r.outcome == TxnOutcome::kCommitted) ++committed;
                    if (r.outcome == TxnOutcome::kUnavailable) {
                      ++unavailable;
                    }
                  });
  }
  cluster.sim().Run();
  EXPECT_EQ(committed, 10);
  EXPECT_EQ(unavailable, 0);
  // The minority side cannot muster a write quorum (2 of 5 votes).
  std::optional<TxnResult> minority;
  scheme.Submit(3, Program({Op::Add(1, 1)}),
                [&](const TxnResult& r) { minority = r; });
  cluster.sim().Run();
  ASSERT_TRUE(minority.has_value());
  EXPECT_EQ(minority->outcome, TxnOutcome::kUnavailable);
  // Heal: the link-restored hooks catch the minority up.
  injector.HealPartition("split");
  cluster.sim().Run();
  EXPECT_EQ(cluster.node(3)->store().GetUnchecked(1).AsScalar(), 10);
  EXPECT_EQ(cluster.node(4)->store().GetUnchecked(1).AsScalar(), 10);
  EXPECT_TRUE(cluster.Converged());
}

TEST(PartitionTest, QuorumFlappingNeverLosesIncrements) {
  // Partitions flap while increments flow; total must be conserved and
  // the execution serializable.
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  FaultInjector injector(&cluster, FaultPlan(), Rng(3, 777));
  ReplayValidator validator;
  Rng rng = cluster.ForkRng();
  int committed = 0;
  bool partitioned = false;
  for (int round = 0; round < 30; ++round) {
    // A random one- or two-node group splits off each round.
    NodeId down1 = static_cast<NodeId>(rng.UniformInt(5));
    NodeId down2 = static_cast<NodeId>(rng.UniformInt(5));
    cluster.sim().ScheduleAfter(SimTime::Millis(1), [&, down1, down2]() {
      if (partitioned) injector.HealPartition("flap");
      std::vector<NodeId> group = {down1};
      if (down2 != down1) group.push_back(down2);
      injector.StartPartition("flap", group);
      partitioned = true;
    });
    cluster.sim().ScheduleAfter(SimTime::Millis(2), [&]() {
      for (int i = 0; i < 3; ++i) {
        NodeId origin = static_cast<NodeId>(rng.UniformInt(5));
        if (!scheme.WriteQuorumAvailableAt(origin)) continue;
        ObjectId oid = rng.UniformInt(32);
        Program p({Op::Add(oid, 1)});
        scheme.Submit(origin, p,
                      [&validator, &committed, p](const TxnResult& r) {
                        if (r.outcome == TxnOutcome::kCommitted) {
                          ++committed;
                          validator.RecordCommit(p, r.commit_ts);
                        }
                      });
      }
    });
    cluster.sim().Run();
  }
  injector.HealAll();
  cluster.sim().Run();
  scheme.CatchUpAll();
  ASSERT_GT(committed, 30);
  EXPECT_TRUE(cluster.Converged());
  EXPECT_TRUE(validator.Matches(cluster.node(0)->store()));
}

TEST(PartitionTest, LazyMasterMinorityMastersBlockOnlyTheirObjects) {
  Cluster cluster(FiveNodes());
  std::vector<NodeId> all = {0, 1, 2, 3, 4};
  Ownership own = Ownership::RoundRobin(32, all);
  LazyMasterScheme scheme(&cluster, &own);
  FaultInjector injector(&cluster, FaultPlan(), Rng(3, 777));
  // Node 4 (owner of objects 4, 9, 14, ...) splits off — it is still
  // up, just unreachable from the majority side.
  injector.StartPartition("iso", {4});
  std::optional<TxnResult> blocked, fine;
  scheme.Submit(0, Program({Op::Add(4, 1)}),  // owner unreachable
                [&](const TxnResult& r) { blocked = r; });
  scheme.Submit(0, Program({Op::Add(5, 1)}),  // owner 0, reachable
                [&](const TxnResult& r) { fine = r; });
  cluster.sim().Run();
  EXPECT_EQ(blocked->outcome, TxnOutcome::kUnavailable);
  EXPECT_EQ(fine->outcome, TxnOutcome::kCommitted);
  // The isolated master can still update its own objects (that is the
  // availability lazy-master buys over eager).
  std::optional<TxnResult> local;
  scheme.Submit(4, Program({Op::Add(4, 1)}),
                [&](const TxnResult& r) { local = r; });
  cluster.sim().Run();
  EXPECT_EQ(local->outcome, TxnOutcome::kCommitted);
  // Heal: the parked slave updates deliver and everyone converges.
  injector.HealAll();
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
}

TEST(PartitionTest, LazyGroupSplitBrainWritesBothSides) {
  // The §4 nightmare scenario: a full split, both halves write the same
  // object, heal -> irreconcilable divergence detected on both sides.
  Cluster cluster(FiveNodes());
  LazyGroupScheme scheme(&cluster);
  FaultInjector injector(&cluster, FaultPlan(), Rng(3, 777));
  // Split {0,1} vs {2,3,4} at the link level: BOTH sides keep accepting
  // writes — that is the point (and the danger) of lazy group.
  injector.StartPartition("split", {0, 1});
  scheme.Submit(0, Program({Op::Write(7, 100)}), nullptr);
  scheme.Submit(2, Program({Op::Write(7, 200)}), nullptr);
  cluster.sim().Run();
  // Heal: the parked cross-split replica updates now deliver, and each
  // side's timestamp-match test fails against the other's write.
  injector.HealPartition("split");
  cluster.sim().Run();
  EXPECT_GE(scheme.reconciliations(), 1u);
  EXPECT_FALSE(cluster.Converged());
  // Both values survive somewhere — nobody's committed write was undone,
  // which is exactly why reconciliation needs a human/rule.
  bool saw100 = false, saw200 = false;
  for (NodeId n = 0; n < 5; ++n) {
    auto v = cluster.node(n)->store().GetUnchecked(7).AsScalar();
    saw100 |= v == 100;
    saw200 |= v == 200;
  }
  EXPECT_TRUE(saw100);
  EXPECT_TRUE(saw200);
}

TEST(PartitionTest, EagerQuorumWriteSetExcludesUnreachableNodes) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  FaultInjector injector(&cluster, FaultPlan(), Rng(3, 777));
  injector.StartPartition("iso", {1});
  std::optional<TxnResult> result;
  scheme.Submit(2, Program({Op::Write(9, 5)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_EQ(result->outcome, TxnOutcome::kCommitted);
  // The isolated node holds nothing; exactly three reachable members do
  // (write quorum = 3 of 5).
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(9).AsScalar(), 0);
  int holders = 0;
  for (NodeId n = 0; n < 5; ++n) {
    if (cluster.node(n)->store().GetUnchecked(9).AsScalar() == 5) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 3);
  // Heal: the rejoin catch-up refreshes the isolated replica.
  injector.HealPartition("iso");
  cluster.sim().Run();
  EXPECT_EQ(cluster.node(1)->store().GetUnchecked(9).AsScalar(), 5);
}

}  // namespace
}  // namespace tdr
