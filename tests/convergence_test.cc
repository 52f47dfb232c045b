#include "replication/convergence.h"

#include <gtest/gtest.h>

namespace tdr {
namespace {

TEST(GossipReplicaTest, LocalReplaceBumpsVersionVector) {
  GossipReplica r(0, 8);
  r.LocalReplace(2, Value(5));
  const StoredObject& obj = r.store().GetUnchecked(2);
  EXPECT_EQ(obj.AsScalar(), 5);
  EXPECT_EQ(r.vv(2).Get(0), 1u);
  EXPECT_FALSE(obj.ts().IsZero());
}

TEST(GossipReplicaTest, ExchangeStatePropagatesDominantVersion) {
  GossipReplica a(0, 8), b(1, 8);
  a.LocalReplace(3, Value(9));
  std::uint64_t conflicts = a.ExchangeState(&b, TimePriorityRule());
  EXPECT_EQ(conflicts, 0u);
  EXPECT_EQ(b.store().GetUnchecked(3).AsScalar(), 9);
  EXPECT_TRUE(a.store().SameValuesAs(b.store()));
}

TEST(GossipReplicaTest, SequentialReplacesNeverConflict) {
  GossipReplica a(0, 8), b(1, 8);
  a.LocalReplace(3, Value(1));
  a.ExchangeState(&b, TimePriorityRule());
  b.LocalReplace(3, Value(2));  // causally after a's version
  std::uint64_t conflicts = a.ExchangeState(&b, TimePriorityRule());
  EXPECT_EQ(conflicts, 0u);
  EXPECT_EQ(a.store().GetUnchecked(3).AsScalar(), 2);
}

TEST(GossipReplicaTest, ConcurrentReplacesConflictAndResolve) {
  GossipReplica a(0, 8), b(1, 8);
  a.LocalReplace(3, Value(10));
  b.LocalReplace(3, Value(20));
  std::uint64_t conflicts = a.ExchangeState(&b, SitePriorityRule());
  EXPECT_EQ(conflicts, 1u);
  // Site priority: lower id (a) wins.
  EXPECT_EQ(a.store().GetUnchecked(3).AsScalar(), 10);
  EXPECT_EQ(b.store().GetUnchecked(3).AsScalar(), 10);
  EXPECT_EQ(a.conflicts_seen(), 1u);
  EXPECT_EQ(b.conflicts_seen(), 1u);
}

TEST(GossipReplicaTest, ConflictResolutionPropagatesToThirdReplica) {
  GossipCluster cluster(3, 8);
  cluster.replica(0).LocalReplace(1, Value(100));
  cluster.replica(1).LocalReplace(1, Value(200));
  std::uint64_t conflicts = cluster.ConvergeState(ValuePriorityRule());
  EXPECT_GE(conflicts, 1u);
  EXPECT_TRUE(cluster.Converged());
  // Value priority: max wins everywhere.
  EXPECT_EQ(cluster.replica(2).store().GetUnchecked(1).AsScalar(),
            200);
}

TEST(ReconciliationRulesTest, TimePriorityPicksNewer) {
  StoredObject older, newer;
  older.Set(Value(1), Timestamp(1, 0));
  newer.Set(Value(2), Timestamp(2, 1));
  ConflictContext ctx{0, 0, 1, &older, &newer};
  EXPECT_EQ(TimePriorityRule()(ctx).AsScalar(), 2);
  ConflictContext rev{0, 1, 0, &newer, &older};
  EXPECT_EQ(TimePriorityRule()(rev).AsScalar(), 2);
}

TEST(ReconciliationRulesTest, AdditiveMergeSums) {
  StoredObject a, b;
  a.Set(Value(30), Timestamp(1, 0));
  b.Set(Value(12), Timestamp(2, 1));
  ConflictContext ctx{0, 0, 1, &a, &b};
  EXPECT_EQ(AdditiveMergeRule()(ctx).AsScalar(), 42);
}

TEST(LostUpdateTest, TimestampedReplaceLosesConcurrentIncrements) {
  // THE §6 lost-update demonstration: two replicas each add 100 to the
  // same checkbook balance, expressed as read-modify-write REPLACE.
  // After convergence only one increment survives.
  GossipCluster cluster(2, 4);
  cluster.replica(0).LocalReplaceAdd(0, 100);
  cluster.replica(1).LocalReplaceAdd(0, 100);
  cluster.ConvergeState(TimePriorityRule());
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.replica(0).store().GetUnchecked(0).AsScalar(),
            100);  // one update lost, not 200
}

TEST(LostUpdateTest, CommutativeDeltasLoseNothing) {
  // Same workload as incremental transformations ("Debit the account by
  // $50" instead of "change account from $200 to $150"): all effects
  // survive.
  GossipCluster cluster(2, 4);
  cluster.replica(0).LocalDelta(0, 100);
  cluster.replica(1).LocalDelta(0, 100);
  cluster.ConvergeOps();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.replica(0).store().GetUnchecked(0).AsScalar(),
            200);
}

TEST(LostUpdateTest, ManyReplicasManyDeltasExactSum) {
  GossipCluster cluster(5, 4);
  std::int64_t expected = 0;
  for (NodeId r = 0; r < 5; ++r) {
    for (int i = 1; i <= 10; ++i) {
      cluster.replica(r).LocalDelta(1, r + i);
      expected += r + i;
    }
  }
  cluster.ConvergeOps();
  EXPECT_TRUE(cluster.Converged());
  for (NodeId r = 0; r < 5; ++r) {
    EXPECT_EQ(cluster.replica(r).store().GetUnchecked(1).AsScalar(),
              expected);
  }
}

TEST(AppendTest, NotesStyleAppendConvergesWithAllNotes) {
  // Lotus Notes append: every appended note survives at every replica,
  // stored in timestamp order.
  GossipCluster cluster(3, 4);
  cluster.replica(0).LocalAppend(2, 30);
  cluster.replica(1).LocalAppend(2, 10);
  cluster.replica(2).LocalAppend(2, 20);
  cluster.ConvergeOps();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.replica(0).store().GetUnchecked(2).AsList(),
            (Value::List{10, 20, 30}));
}

TEST(AppendTest, TransitiveForwardingThroughIntermediate) {
  // A and C never talk; B relays. Op-based gossip must forward.
  GossipCluster cluster(3, 4);
  cluster.replica(0).LocalAppend(0, 7);
  cluster.replica(0).ExchangeOps(&cluster.replica(1));
  cluster.replica(1).ExchangeOps(&cluster.replica(2));
  EXPECT_EQ(cluster.replica(2).store().GetUnchecked(0).AsList(),
            (Value::List{7}));
}

TEST(AppendTest, ExchangeOpsIdempotent) {
  GossipCluster cluster(2, 4);
  cluster.replica(0).LocalAppend(0, 1);
  std::uint64_t first = cluster.replica(0).ExchangeOps(&cluster.replica(1));
  std::uint64_t second =
      cluster.replica(0).ExchangeOps(&cluster.replica(1));
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 0u);  // nothing new
  EXPECT_EQ(cluster.replica(1).store().GetUnchecked(0).AsList(),
            (Value::List{1}));
}

TEST(ReconciliationRulesTest, CatalogueHasTwelveResolvableRules) {
  // "Oracle 7 provides a choice of twelve reconciliation rules."
  auto names = RuleCatalogue();
  EXPECT_EQ(names.size(), 12u);
  for (const std::string& name : names) {
    EXPECT_TRUE(RuleByName(name) != nullptr) << name;
  }
  EXPECT_TRUE(RuleByName("no-such-rule") == nullptr);
}

TEST(ReconciliationRulesTest, EachRulePicksTheDocumentedWinner) {
  StoredObject a, b;
  a.Set(Value(30), Timestamp(1, 0));
  b.Set(Value(12), Timestamp(2, 1));
  ConflictContext ctx{/*oid=*/0, /*node_a=*/0, /*node_b=*/1, &a, &b};
  EXPECT_EQ(RuleByName("latest-timestamp")(ctx).AsScalar(), 12);
  EXPECT_EQ(RuleByName("earliest-timestamp")(ctx).AsScalar(), 30);
  EXPECT_EQ(RuleByName("maximum")(ctx).AsScalar(), 30);
  EXPECT_EQ(RuleByName("minimum")(ctx).AsScalar(), 12);
  EXPECT_EQ(RuleByName("additive")(ctx).AsScalar(), 42);
  EXPECT_EQ(RuleByName("average")(ctx).AsScalar(), 21);
  EXPECT_EQ(RuleByName("discard")(ctx).AsScalar(), 30);
  EXPECT_EQ(RuleByName("overwrite")(ctx).AsScalar(), 12);
  EXPECT_EQ(RuleByName("site-priority")(ctx).AsScalar(), 30);
}

TEST(ReconciliationRulesTest, PriorityGroupRanksSites) {
  StoredObject a, b;
  a.Set(Value(1), Timestamp(9, 0));  // newer
  b.Set(Value(2), Timestamp(1, 1));
  ConflictContext ctx{0, /*node_a=*/0, /*node_b=*/1, &a, &b};
  // Node 1 outranks node 0: b wins despite being older.
  auto rule = PriorityGroupRule({{1, 0}, {0, 5}});
  EXPECT_EQ(rule(ctx).AsScalar(), 2);
  // No ranks at all: falls back to latest timestamp.
  auto unranked = PriorityGroupRule({});
  EXPECT_EQ(unranked(ctx).AsScalar(), 1);
}

TEST(ReconciliationRulesTest, ListMergeUnionsNotes) {
  StoredObject a, b;
  a.Set(Value(Value::List{1, 5}), Timestamp(1, 0));
  b.Set(Value(Value::List{3}), Timestamp(2, 1));
  ConflictContext ctx{0, 0, 1, &a, &b};
  EXPECT_EQ(RuleByName("list-merge")(ctx).AsList(),
            (Value::List{1, 3, 5}));
}

TEST(ReconciliationRulesTest, AllRulesConvergeTheCluster) {
  for (const std::string& name : RuleCatalogue()) {
    GossipCluster cluster(3, 4);
    cluster.replica(0).LocalReplaceAdd(0, 10);
    cluster.replica(1).LocalReplaceAdd(0, 20);
    cluster.replica(2).LocalReplaceAdd(1, 5);
    cluster.ConvergeState(RuleByName(name));
    EXPECT_TRUE(cluster.Converged()) << name;
  }
}

TEST(GossipClusterTest, ConvergeStateIsIdempotentAfterQuiescence) {
  GossipCluster cluster(4, 16);
  for (NodeId r = 0; r < 4; ++r) {
    cluster.replica(r).LocalReplace(r, Value(static_cast<std::int64_t>(r)));
  }
  cluster.ConvergeState(TimePriorityRule());
  ASSERT_TRUE(cluster.Converged());
  std::uint64_t more = cluster.ConvergeState(TimePriorityRule());
  EXPECT_EQ(more, 0u);
}

TEST(GossipClusterTest, MixedDisjointUpdatesNeverConflict) {
  GossipCluster cluster(3, 16);
  cluster.replica(0).LocalReplace(0, Value(1));
  cluster.replica(1).LocalReplace(1, Value(2));
  cluster.replica(2).LocalReplace(2, Value(3));
  std::uint64_t conflicts = cluster.ConvergeState(TimePriorityRule());
  EXPECT_EQ(conflicts, 0u);
  EXPECT_TRUE(cluster.Converged());
  for (NodeId r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(r).store().GetUnchecked(2).AsScalar(),
              3);
  }
}

TEST(GossipClusterTest, OrderOfExchangesDoesNotAffectFinalState) {
  // Convergence property: same updates, different gossip orders, same
  // final state (deltas + appends are CRDT-ish).
  auto build = [] {
    auto c = std::make_unique<GossipCluster>(3, 8);
    c->replica(0).LocalDelta(0, 5);
    c->replica(1).LocalDelta(0, 7);
    c->replica(2).LocalAppend(1, 3);
    c->replica(0).LocalAppend(1, 9);
    return c;
  };
  auto c1 = build();
  c1->replica(0).ExchangeOps(&c1->replica(1));
  c1->replica(1).ExchangeOps(&c1->replica(2));
  c1->replica(0).ExchangeOps(&c1->replica(2));
  c1->replica(0).ExchangeOps(&c1->replica(1));
  auto c2 = build();
  c2->replica(2).ExchangeOps(&c2->replica(1));
  c2->replica(1).ExchangeOps(&c2->replica(0));
  c2->replica(2).ExchangeOps(&c2->replica(0));
  c2->replica(2).ExchangeOps(&c2->replica(1));
  EXPECT_TRUE(c1->Converged());
  EXPECT_TRUE(c2->Converged());
  EXPECT_TRUE(c1->replica(0).store().SameValuesAs(c2->replica(0).store()));
}

}  // namespace
}  // namespace tdr
