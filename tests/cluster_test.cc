#include "replication/cluster.h"

#include <gtest/gtest.h>

#include "plan_helpers.h"
#include "util/fnv.h"

namespace tdr {
namespace {

Cluster::Options ThreeNodes() {
  Cluster::Options o;
  o.num_nodes = 3;
  o.db_size = 8;
  o.seed = 5;
  return o;
}

TEST(ClusterTest, ConstructionWiresNodes) {
  Cluster cluster(ThreeNodes());
  EXPECT_EQ(cluster.size(), 3u);
  for (NodeId id = 0; id < 3; ++id) {
    ASSERT_NE(cluster.node(id), nullptr);
    EXPECT_EQ(cluster.node(id)->id(), id);
    EXPECT_EQ(cluster.node(id)->store().size(), 8u);
    EXPECT_TRUE(cluster.node(id)->connected());
  }
  EXPECT_EQ(cluster.sim().Now(), SimTime::Zero());
}

TEST(ClusterTest, FreshClusterIsConverged) {
  Cluster cluster(ThreeNodes());
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.DivergentSlots(), 0u);
  ObjectStore reference(8);
  EXPECT_TRUE(cluster.ConvergedTo(reference));
}

TEST(ClusterTest, DivergentSlotsCountsPerNodePerObject) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(2, Value(1), Timestamp(1, 1)).ok());
  ASSERT_TRUE(
      cluster.node(2)->store().Put(2, Value(1), Timestamp(1, 2)).ok());
  ASSERT_TRUE(
      cluster.node(2)->store().Put(5, Value(9), Timestamp(2, 2)).ok());
  EXPECT_FALSE(cluster.Converged());
  // Node 1 differs from node 0 at object 2; node 2 differs at 2 and 5.
  EXPECT_EQ(cluster.DivergentSlots(), 3u);
}

// Gives every store a state the digests must cover, different on every
// node: objects 4k+1 are lists on even nodes and scalars on odd ones,
// 4k+2 lists everywhere, 4k+3 scalars everywhere, and 4k stay at zero.
void FillMixedState(Cluster& cluster) {
  for (NodeId id = 0; id < cluster.size(); ++id) {
    ObjectStore& store = cluster.node(id)->store();
    for (ObjectId oid = 0; oid < store.size(); ++oid) {
      const auto x = static_cast<std::int64_t>(oid * 7 + id);
      Value value(x);
      if (oid % 4 == 2 || (oid % 4 == 1 && id % 2 == 0)) {
        value = Value(Value::List{x, -x});
      }
      if (oid % 4 == 0) continue;
      ASSERT_TRUE(store.Put(oid, value, Timestamp(oid + id + 1, id)).ok());
    }
  }
}

TEST(ClusterTest, DigestsEqualPerStoreDigestsAtAnyNodeCount) {
  for (std::uint32_t nodes : {1u, 3u, 4u, 5u, 6u, 9u}) {
    SCOPED_TRACE(nodes);
    Cluster::Options o = ThreeNodes();
    o.num_nodes = nodes;
    o.db_size = 37;
    o.num_shards = 4;
    Cluster cluster(o);
    FillMixedState(cluster);
    std::uint64_t folded = kFnvOffsetBasis;
    for (NodeId id = 0; id < nodes; ++id) {
      folded = FnvMix(folded, cluster.node(id)->store().Digest());
    }
    EXPECT_EQ(cluster.StateDigest(), folded);
    for (ShardId s = 0; s < cluster.shards().num_shards(); ++s) {
      SCOPED_TRACE(s);
      const std::vector<std::uint64_t> digests = cluster.ShardDigests(s);
      ASSERT_EQ(digests.size(), nodes);
      for (NodeId id = 0; id < nodes; ++id) {
        const ObjectStore& store = cluster.node(id)->store();
        EXPECT_EQ(digests[id], store.ShardDigest(cluster.shards(), s));
      }
    }
  }
}

TEST(ClusterTest, StateDigestMatchesGoldenValue) {
  // A change to the hash itself (byte order, kind tags, fold) fails
  // here before it reaches any committed benchmark baseline.
  Cluster::Options o = ThreeNodes();
  o.num_nodes = 4;
  o.db_size = 9;
  Cluster cluster(o);
  FillMixedState(cluster);
  EXPECT_EQ(cluster.StateDigest(), 0x98c5f45692b1e1aeULL);
}

TEST(ClusterTest, ConvergedToDetectsMismatch) {
  Cluster cluster(ThreeNodes());
  ObjectStore reference(8);
  ASSERT_TRUE(reference.Put(0, Value(7), Timestamp(1, 0)).ok());
  EXPECT_FALSE(cluster.ConvergedTo(reference));
  for (NodeId id = 0; id < 3; ++id) {
    ASSERT_TRUE(
        cluster.node(id)->store().Put(0, Value(7), Timestamp(1, 0)).ok());
  }
  EXPECT_TRUE(cluster.ConvergedTo(reference));
}

TEST(ClusterTest, ForkRngDeterministicPerSeed) {
  Cluster a(ThreeNodes());
  Cluster b(ThreeNodes());
  Rng ra = a.ForkRng();
  Rng rb = b.ForkRng();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ra.Next64(), rb.Next64());
  }
  Cluster::Options other = ThreeNodes();
  other.seed = 6;
  Cluster c(other);
  Rng rc = c.ForkRng();
  int same = 0;
  Rng ra2 = a.ForkRng();
  for (int i = 0; i < 32; ++i) {
    if (ra2.Next64() == rc.Next64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ClusterTest, CountersSharedAcrossComponents) {
  Cluster cluster(ThreeNodes());
  cluster.metrics().Increment("custom.metric", 3);
  EXPECT_EQ(cluster.metrics().Get("custom.metric"), 3u);
  // Network shares the registry.
  cluster.net().Send(0, 1, [] {});
  cluster.sim().Run();
  EXPECT_EQ(cluster.metrics().Get("net.sent"), 1u);
  EXPECT_EQ(cluster.metrics().Get("net.delivered"), 1u);
}

TEST(ClusterTest, DetectCyclesOffLeavesCyclesPending) {
  Cluster::Options o = ThreeNodes();
  o.detect_deadlock_cycles = false;
  o.action_time = SimTime::Millis(10);
  Cluster cluster(o);
  // Classic A/B cross on one node: with the detector off, both block
  // forever (the executor would need timeouts to break it).
  bool done1 = false, done2 = false;
  RunLocal(cluster.executor(), 0,
           Program({Op::Write(0, 1), Op::Write(1, 1)}), {},
           [&](const TxnResult&) { done1 = true; });
  cluster.sim().ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(cluster.executor(), 0,
             Program({Op::Write(1, 2), Op::Write(0, 2)}), {},
             [&](const TxnResult&) { done2 = true; });
  });
  cluster.sim().Run();
  EXPECT_FALSE(done1);
  EXPECT_FALSE(done2);
  EXPECT_EQ(cluster.executor().ActiveCount(), 2u);
  // The cycle is visible in the graph even though nobody acted on it.
  EXPECT_TRUE(cluster.graph().HasCycleFrom(1) ||
              cluster.graph().HasCycleFrom(2));
}

}  // namespace
}  // namespace tdr
