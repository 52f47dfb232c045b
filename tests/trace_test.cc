#include "txn/trace.h"

#include <gtest/gtest.h>

#include "plan_helpers.h"
#include "replication/cluster.h"
#include "replication/lazy_group.h"

namespace tdr {
namespace {

TEST(TraceTest, EventTypeNames) {
  EXPECT_EQ(TraceEventTypeToString(TraceEventType::kTxnStart), "txn-start");
  EXPECT_EQ(TraceEventTypeToString(TraceEventType::kReplicaConflict),
            "replica-CONFLICT");
}

TEST(TraceTest, VectorSinkCollectsAndFilters) {
  VectorTraceSink sink;
  TraceEvent e1{SimTime::Millis(1), TraceEventType::kTxnStart, 1, 0, 0,
                kInvalidTxnId, ""};
  TraceEvent e2{SimTime::Millis(2), TraceEventType::kTxnCommit, 1, 0, 0,
                kInvalidTxnId, ""};
  sink.OnEvent(e1);
  sink.OnEvent(e2);
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.OfType(TraceEventType::kTxnCommit).size(), 1u);
  sink.Clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceTest, ExecutorEmitsLifecycleEvents) {
  Cluster::Options copts;
  copts.num_nodes = 1;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  RunLocal(cluster.executor(), 0, Program({Op::Write(2, 5), Op::Read(2)}),
           {}, nullptr);
  cluster.sim().Run();
  auto starts = sink.OfType(TraceEventType::kTxnStart);
  auto applies = sink.OfType(TraceEventType::kOpApply);
  auto commits = sink.OfType(TraceEventType::kTxnCommit);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(applies.size(), 2u);
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_LT(starts[0].time, commits[0].time);
  EXPECT_EQ(applies[0].oid, 2u);
}

TEST(TraceTest, WaitAndGrantTraced) {
  Cluster::Options copts;
  copts.num_nodes = 1;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  RunLocal(cluster.executor(), 0, Program({Op::Add(0, 1)}), {}, nullptr);
  cluster.sim().ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(cluster.executor(), 0, Program({Op::Add(0, 1)}), {}, nullptr);
  });
  cluster.sim().Run();
  EXPECT_EQ(sink.OfType(TraceEventType::kLockWait).size(), 1u);
  EXPECT_EQ(sink.OfType(TraceEventType::kLockGrant).size(), 1u);
}

TEST(TraceTest, DeadlockAbortTraced) {
  Cluster::Options copts;
  copts.num_nodes = 1;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  RunLocal(cluster.executor(), 0,
           Program({Op::Write(0, 1), Op::Write(1, 1)}), {}, nullptr);
  cluster.sim().ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(cluster.executor(), 0,
             Program({Op::Write(1, 2), Op::Write(0, 2)}), {}, nullptr);
  });
  cluster.sim().Run();
  auto aborts = sink.OfType(TraceEventType::kTxnAbort);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].detail, "deadlock");
}

TEST(TraceTest, ReplicaEventsTracedThroughLazyGroup) {
  Cluster::Options copts;
  copts.num_nodes = 2;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  VectorTraceSink sink;
  LazyGroupScheme scheme(&cluster);
  scheme.set_trace_sink(&sink);
  scheme.Submit(0, Program({Op::Write(3, 9)}), nullptr);
  cluster.sim().Run();
  EXPECT_EQ(sink.OfType(TraceEventType::kReplicaTxnStart).size(), 1u);
  EXPECT_EQ(sink.OfType(TraceEventType::kReplicaApply).size(), 1u);
  EXPECT_EQ(sink.OfType(TraceEventType::kReplicaTxnDone).size(), 1u);
}

TEST(TraceTest, ConflictTraced) {
  Cluster::Options copts;
  copts.num_nodes = 2;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(10);
  Cluster cluster(copts);
  VectorTraceSink sink;
  LazyGroupScheme scheme(&cluster);
  scheme.set_trace_sink(&sink);
  scheme.Submit(0, Program({Op::Write(3, 1)}), nullptr);
  scheme.Submit(1, Program({Op::Write(3, 2)}), nullptr);
  cluster.sim().Run();
  EXPECT_GE(sink.OfType(TraceEventType::kReplicaConflict).size(), 1u);
}

TEST(TraceTest, ToStringRendersAllEvents) {
  VectorTraceSink sink;
  sink.OnEvent({SimTime::Millis(5), TraceEventType::kOpApply, 3, 1, 7,
                kInvalidTxnId, "add(o7,2)"});
  std::string text = sink.ToString();
  EXPECT_NE(text.find("op-apply"), std::string::npos);
  EXPECT_NE(text.find("txn3"), std::string::npos);
  EXPECT_NE(text.find("add(o7,2)"), std::string::npos);
}

}  // namespace
}  // namespace tdr
