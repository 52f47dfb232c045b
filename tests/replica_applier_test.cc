#include "replication/replica_applier.h"

#include <gtest/gtest.h>

#include "plan_helpers.h"
#include "replication/cluster.h"

namespace tdr {
namespace {

class ReplicaApplierTest : public ::testing::Test {
 protected:
  ReplicaApplierTest()
      : cluster_(MakeOptions()),
        applier_(&cluster_.sim(), &cluster_.executor(),
                 &cluster_.metrics()) {}

  static Cluster::Options MakeOptions() {
    Cluster::Options o;
    o.num_nodes = 2;
    o.db_size = 16;
    o.action_time = SimTime::Millis(10);
    return o;
  }

  UpdateRecord MakeRecord(ObjectId oid, std::int64_t value,
                          Timestamp old_ts, Timestamp new_ts) {
    UpdateRecord rec;
    rec.txn = 999;
    rec.oid = oid;
    rec.old_ts = old_ts;
    rec.new_ts = new_ts;
    rec.new_value = Value(value);
    rec.origin = 0;
    return rec;
  }

  ReplicaApplier::Options GroupOpts() {
    ReplicaApplier::Options o;
    o.action_time = SimTime::Millis(10);
    o.mode = ReplicaApplier::Mode::kTimestampMatch;
    return o;
  }

  ReplicaApplier::Options MasterOpts() {
    ReplicaApplier::Options o = GroupOpts();
    o.mode = ReplicaApplier::Mode::kNewerWins;
    return o;
  }

  Cluster cluster_;
  ReplicaApplier applier_;
};

TEST_F(ReplicaApplierTest, AppliesMatchingUpdate) {
  Node* dest = cluster_.node(1);
  std::optional<ReplicaApplier::Report> report;
  applier_.Apply(dest, {MakeRecord(3, 42, Timestamp::Zero(),
                                   Timestamp(5, 0))},
                 GroupOpts(),
                 [&](const ReplicaApplier::Report& r) { report = r; });
  cluster_.sim().Run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->applied, 1u);
  EXPECT_EQ(report->conflicts, 0u);
  EXPECT_EQ(dest->store().GetUnchecked(3).AsScalar(), 42);
  EXPECT_EQ(dest->store().GetUnchecked(3).ts(), Timestamp(5, 0));
}

TEST_F(ReplicaApplierTest, TimestampMismatchCountsReconciliation) {
  Node* dest = cluster_.node(1);
  ASSERT_TRUE(dest->store().Put(3, Value(7), Timestamp(9, 1)).ok());
  std::optional<ReplicaApplier::Report> report;
  applier_.Apply(dest, {MakeRecord(3, 42, Timestamp::Zero(),
                                   Timestamp(5, 0))},
                 GroupOpts(),
                 [&](const ReplicaApplier::Report& r) { report = r; });
  cluster_.sim().Run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->applied, 0u);
  EXPECT_EQ(report->conflicts, 1u);
  // Local value preserved — divergence is surfaced, not papered over.
  EXPECT_EQ(dest->store().GetUnchecked(3).AsScalar(), 7);
  EXPECT_EQ(cluster_.metrics().Get("replica.conflicts"), 1u);
}

TEST_F(ReplicaApplierTest, NewerWinsAppliesAndIgnoresStale) {
  Node* dest = cluster_.node(1);
  ASSERT_TRUE(dest->store().Put(2, Value(7), Timestamp(9, 1)).ok());
  std::optional<ReplicaApplier::Report> report;
  std::vector<UpdateRecord> batch = {
      MakeRecord(2, 1, Timestamp::Zero(), Timestamp(3, 0)),   // stale
      MakeRecord(4, 2, Timestamp::Zero(), Timestamp(10, 0)),  // fresh
  };
  applier_.Apply(dest, batch, MasterOpts(),
                 [&](const ReplicaApplier::Report& r) { report = r; });
  cluster_.sim().Run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->applied, 1u);
  EXPECT_EQ(report->stale, 1u);
  EXPECT_EQ(dest->store().GetUnchecked(2).AsScalar(), 7);
  EXPECT_EQ(dest->store().GetUnchecked(4).AsScalar(), 2);
}

TEST_F(ReplicaApplierTest, EmptyBatchReportsImmediately) {
  bool done = false;
  applier_.Apply(cluster_.node(1), {}, GroupOpts(),
                 [&](const ReplicaApplier::Report& r) {
                   done = true;
                   EXPECT_EQ(r.applied, 0u);
                 });
  EXPECT_TRUE(done);  // synchronous for empty batches
}

TEST_F(ReplicaApplierTest, ChargesActionTimePerUpdate) {
  SimTime finish;
  std::vector<UpdateRecord> batch = {
      MakeRecord(0, 1, Timestamp::Zero(), Timestamp(1, 0)),
      MakeRecord(1, 1, Timestamp::Zero(), Timestamp(1, 0)),
      MakeRecord(2, 1, Timestamp::Zero(), Timestamp(1, 0)),
  };
  applier_.Apply(cluster_.node(1), batch, GroupOpts(),
                 [&](const ReplicaApplier::Report&) {
                   finish = cluster_.sim().Now();
                 });
  cluster_.sim().Run();
  EXPECT_EQ(finish, SimTime::Millis(30));
}

TEST_F(ReplicaApplierTest, WaitsForUserTransactionLocks) {
  // A user transaction holds the lock; the replica update must queue
  // behind it.
  Node* dest = cluster_.node(1);
  Executor::RunOptions uopts;
  uopts.action_time = SimTime::Millis(50);
  RunLocal(cluster_.executor(), 1, Program({Op::Add(0, 5)}), uopts, nullptr);
  std::optional<ReplicaApplier::Report> report;
  SimTime finish;
  cluster_.sim().ScheduleAt(SimTime::Millis(10), [&] {
    applier_.Apply(dest,
                   {MakeRecord(0, 1, Timestamp::Zero(), Timestamp(1, 0))},
                   MasterOpts(), [&](const ReplicaApplier::Report& r) {
                     report = r;
                     finish = cluster_.sim().Now();
                   });
  });
  cluster_.sim().Run();
  ASSERT_TRUE(report.has_value());
  // User txn commits at 50ms; replica lock grant then 10ms action.
  EXPECT_EQ(finish, SimTime::Millis(60));
  // The user's Add(0,5) committed before the replica overwrote; newer
  // replica ts wins or not depending on clocks — just check applied+stale==1.
  EXPECT_EQ(report->applied + report->stale, 1u);
}

TEST_F(ReplicaApplierTest, ActiveCountTracksJobs) {
  EXPECT_EQ(applier_.ActiveCount(), 0u);
  applier_.Apply(cluster_.node(1),
                 {MakeRecord(0, 1, Timestamp::Zero(), Timestamp(1, 0))},
                 GroupOpts(), nullptr);
  EXPECT_EQ(applier_.ActiveCount(), 1u);
  cluster_.sim().Run();
  EXPECT_EQ(applier_.ActiveCount(), 0u);
}

}  // namespace
}  // namespace tdr
