// Randomized convergence properties of the §6 gossip machinery: any mix
// of commutative ops, on any replica, exchanged in any order, must
// converge to the same state with every effect preserved; state-based
// exchange must converge under every catalogue rule.

#include <gtest/gtest.h>

#include <map>

#include "replication/convergence.h"
#include "util/rng.h"

namespace tdr {
namespace {

class GossipPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GossipPropertyTest, RandomCommutativeOpsConvergeLossless) {
  Rng rng(GetParam());
  const std::uint32_t kReplicas = 2 + rng.UniformInt(4);  // 2..5
  const std::uint64_t kObjects = 6;
  GossipCluster cluster(kReplicas, kObjects);
  // Deltas and appends use DISJOINT object ranges: Add and Append on
  // the same object do not commute (OpsCommute says so), and the whole
  // point of the gossip layer is that it ships only mutually commuting
  // ops per object. Counters live in [0,3), note files in [3,6).
  std::map<ObjectId, std::int64_t> expected_sum;
  std::map<ObjectId, std::size_t> expected_notes;
  for (int step = 0; step < 400; ++step) {
    NodeId r = static_cast<NodeId>(rng.UniformInt(kReplicas));
    switch (rng.UniformInt(3)) {
      case 0: {
        ObjectId oid = rng.UniformInt(3);
        std::int64_t delta = rng.UniformRange(-9, 9);
        cluster.replica(r).LocalDelta(oid, delta);
        expected_sum[oid] += delta;
        break;
      }
      case 1: {
        ObjectId oid = 3 + rng.UniformInt(3);
        // Unique note id per step keeps append counts checkable.
        cluster.replica(r).LocalAppend(oid, 10000 + step);
        ++expected_notes[oid];
        break;
      }
      case 2: {
        NodeId other = static_cast<NodeId>(rng.UniformInt(kReplicas));
        if (other != r) {
          cluster.replica(r).ExchangeOps(&cluster.replica(other));
        }
        break;
      }
    }
  }
  cluster.ConvergeOps();
  ASSERT_TRUE(cluster.Converged());
  for (ObjectId oid = 0; oid < 3; ++oid) {
    EXPECT_EQ(cluster.replica(0).store().GetUnchecked(oid).AsScalar(),
              expected_sum[oid])
        << "counter " << oid;
  }
  for (ObjectId oid = 3; oid < 6; ++oid) {
    EXPECT_EQ(
        cluster.replica(0).store().GetUnchecked(oid).AsList().size(),
        expected_notes[oid])
        << "notes file " << oid;
  }
}

TEST_P(GossipPropertyTest, StateExchangeConvergesUnderEveryRule) {
  Rng rng(GetParam() + 100);
  for (const std::string& rule_name : RuleCatalogue()) {
    GossipCluster cluster(3, 4);
    for (int i = 0; i < 12; ++i) {
      NodeId r = static_cast<NodeId>(rng.UniformInt(3));
      ObjectId oid = rng.UniformInt(4);
      cluster.replica(r).LocalReplace(
          oid, Value(rng.UniformRange(0, 100)));
    }
    cluster.ConvergeState(RuleByName(rule_name));
    EXPECT_TRUE(cluster.Converged()) << rule_name;
    // Idempotence: another full round changes nothing and reports no
    // new conflicts.
    EXPECT_EQ(cluster.ConvergeState(RuleByName(rule_name)), 0u)
        << rule_name;
  }
}

TEST_P(GossipPropertyTest, OpGossipOrderIndependence) {
  // Build the same op set twice; deliver via different random exchange
  // schedules; final states must match.
  auto build = [](std::uint64_t seed) {
    auto cluster = std::make_unique<GossipCluster>(4, 4);
    Rng r(seed);
    for (int i = 0; i < 60; ++i) {
      NodeId node = static_cast<NodeId>(i % 4);
      if (i % 2 == 0) {
        cluster->replica(node).LocalDelta(i % 4, (i % 7) - 3);
      } else {
        cluster->replica(node).LocalAppend(i % 4, 500 + i);
      }
    }
    // Random pairwise gossip.
    for (int g = 0; g < 30; ++g) {
      NodeId a = static_cast<NodeId>(r.UniformInt(4));
      NodeId b = static_cast<NodeId>(r.UniformInt(4));
      if (a != b) cluster->replica(a).ExchangeOps(&cluster->replica(b));
    }
    cluster->ConvergeOps();
    return cluster;
  };
  auto c1 = build(GetParam() * 31 + 1);
  auto c2 = build(GetParam() * 57 + 2);
  ASSERT_TRUE(c1->Converged());
  ASSERT_TRUE(c2->Converged());
  EXPECT_TRUE(
      c1->replica(0).store().SameValuesAs(c2->replica(0).store()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace tdr
