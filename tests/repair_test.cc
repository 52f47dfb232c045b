#include "replication/repair.h"

#include <gtest/gtest.h>

#include "replication/lazy_group.h"

namespace tdr {
namespace {

Cluster::Options SmallOptions() {
  Cluster::Options o;
  o.num_nodes = 3;
  o.db_size = 16;
  o.action_time = SimTime::Millis(5);
  return o;
}

TEST(RepairTest, CleanClusterNeedsNothing) {
  Cluster cluster(SmallOptions());
  DivergenceRepair repair(&cluster);
  EXPECT_TRUE(repair.FindDivergentObjects().empty());
  auto report = repair.Execute(TimePriorityRule());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.replicas_patched, 0u);
}

TEST(RepairTest, FindsManuallyInjectedDivergence) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(4, Value(9), Timestamp(3, 1)).ok());
  DivergenceRepair repair(&cluster);
  EXPECT_EQ(repair.FindDivergentObjects(), (std::vector<ObjectId>{4}));
}

TEST(RepairTest, PlanIsDryRun) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(4, Value(9), Timestamp(3, 1)).ok());
  DivergenceRepair repair(&cluster);
  auto plan = repair.Plan(TimePriorityRule());
  EXPECT_EQ(plan.objects_diverged, 1u);
  ASSERT_EQ(plan.objects.size(), 1u);
  EXPECT_EQ(plan.objects[0].oid, 4u);
  EXPECT_EQ(plan.objects[0].distinct_versions, 2u);
  EXPECT_EQ(plan.objects[0].winner.AsScalar(), 9);  // newer ts wins
  // Nothing changed.
  EXPECT_FALSE(cluster.Converged());
}

TEST(RepairTest, ExecuteRestoresConvergenceWithUniformTimestamps) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(4, Value(9), Timestamp(3, 1)).ok());
  ASSERT_TRUE(
      cluster.node(2)->store().Put(7, Value(5), Timestamp(2, 2)).ok());
  DivergenceRepair repair(&cluster);
  auto report = repair.Execute(TimePriorityRule());
  EXPECT_EQ(report.objects_diverged, 2u);
  EXPECT_GT(report.replicas_patched, 0u);
  EXPECT_TRUE(cluster.Converged());
  // All replicas share the SAME repair timestamp per object, so later
  // lazy-group old-timestamp tests match again.
  for (ObjectId oid : {4u, 7u}) {
    Timestamp ts0 = cluster.node(0)->store().GetUnchecked(oid).ts();
    for (NodeId n = 1; n < 3; ++n) {
      EXPECT_EQ(cluster.node(n)->store().GetUnchecked(oid).ts(), ts0);
    }
  }
  EXPECT_EQ(cluster.metrics().Get("repair.objects"), 2u);
}

TEST(RepairTest, RepairTimestampBeatsInFlightStaleUpdates) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(4, Value(9), Timestamp(99, 1)).ok());
  DivergenceRepair repair(&cluster);
  repair.Execute(TimePriorityRule());
  // The repair stamp is newer than the newest pre-repair timestamp, so
  // a straggler update stamped (99,1) is stale everywhere.
  bool applied = true;
  ASSERT_TRUE(cluster.node(2)
                  ->store()
                  .ApplyIfNewer(4, Value(123), Timestamp(99, 1), &applied)
                  .ok());
  EXPECT_FALSE(applied);
}

TEST(RepairTest, AdditiveRuleFoldsBothBranches) {
  Cluster cluster(SmallOptions());
  // Node 0 thinks 30, others think 12 — e.g. two conflicting deltas.
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_TRUE(cluster.node(n)
                    ->store()
                    .Put(2, Value(n == 0 ? 30 : 12), Timestamp(n + 1, n))
                    .ok());
  }
  DivergenceRepair repair(&cluster);
  auto report = repair.Execute(AdditiveMergeRule());
  ASSERT_EQ(report.objects.size(), 1u);
  EXPECT_EQ(report.objects[0].winner.AsScalar(), 42);
  EXPECT_EQ(report.objects[0].winner_source, "merged");
  EXPECT_TRUE(cluster.Converged());
}

TEST(RepairTest, EndToEndLazyGroupDelusionRepaired) {
  // Produce real divergence via racing lazy-group updates, then repair.
  Cluster cluster(SmallOptions());
  LazyGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(5, 100)}), nullptr);
  scheme.Submit(1, Program({Op::Write(5, 200)}), nullptr);
  cluster.sim().Run();
  ASSERT_GE(scheme.reconciliations(), 1u);
  ASSERT_FALSE(cluster.Converged());

  DivergenceRepair repair(&cluster);
  auto report = repair.Execute(ValuePriorityRule());
  EXPECT_GE(report.objects_diverged, 1u);
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.node(2)->store().GetUnchecked(5).AsScalar(), 200);
  // And the system is usable again: a fresh update propagates cleanly.
  scheme.Submit(2, Program({Op::Write(5, 300)}), nullptr);
  cluster.sim().Run();
  EXPECT_TRUE(cluster.Converged());
  EXPECT_EQ(cluster.node(0)->store().GetUnchecked(5).AsScalar(), 300);
}

}  // namespace
}  // namespace tdr
