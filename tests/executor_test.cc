#include "txn/executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "plan_helpers.h"
#include "sim/simulator.h"

namespace tdr {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void Init(std::uint32_t num_nodes, std::uint64_t db_size = 16) {
    for (NodeId id = 0; id < num_nodes; ++id) {
      nodes_.push_back(std::make_unique<Node>(id, db_size, &graph_));
    }
    std::vector<Node*> ptrs;
    for (auto& n : nodes_) ptrs.push_back(n.get());
    exec_ = std::make_unique<Executor>(&sim_, ptrs, &counters_);
  }

  Executor::RunOptions Opts() {
    Executor::RunOptions o;
    o.action_time = SimTime::Millis(10);
    return o;
  }

  sim::Simulator sim_;
  WaitForGraph graph_;
  obs::MetricsRegistry counters_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecutorTest, SingleTransactionCommits) {
  Init(1);
  std::optional<TxnResult> result;
  Program p({Op::Write(3, 42), Op::Add(3, 8)});
  RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(3).AsScalar(), 50);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(3).ts(), result->commit_ts);
  EXPECT_FALSE(result->commit_ts.IsZero());
  EXPECT_EQ(exec_->committed(), 1u);
  EXPECT_EQ(counters_.Get("txn.committed"), 1u);
}

TEST_F(ExecutorTest, DurationIsActionsTimesActionTime) {
  Init(1);
  std::optional<TxnResult> result;
  Program p({Op::Write(0, 1), Op::Write(1, 1), Op::Write(2, 1)});
  RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  // 3 actions x 10ms, no waiting.
  EXPECT_EQ(result->Duration(), SimTime::Millis(30));
  EXPECT_EQ(result->waits, 0u);
}

TEST_F(ExecutorTest, ReadYourOwnWrites) {
  Init(1);
  std::optional<TxnResult> result;
  Program p({Op::Write(5, 7), Op::Read(5), Op::Add(5, 3), Op::Read(5)});
  RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->reads.size(), 2u);
  EXPECT_EQ(result->reads[0].AsScalar(), 7);
  EXPECT_EQ(result->reads[1].AsScalar(), 10);
}

TEST_F(ExecutorTest, BufferedWritesInvisibleUntilCommit) {
  Init(1);
  // T1 writes object 0 over 30ms; a read-only T2 starting at 15ms must
  // still see the old committed value (committed-read, no dirty reads).
  std::optional<TxnResult> r1, r2;
  Program writer({Op::Write(0, 99), Op::Write(1, 99), Op::Write(2, 99)});
  RunLocal(*exec_, 0, writer, Opts(), [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(15), [&] {
    std::vector<ExecStep> reader;
    LocalPlanInto(0, Program({Op::Read(0)}), &reader);
    reader[0].charge = false;  // sample instantaneously
    RunSteps(*exec_, 0, reader, Opts(), [&](const TxnResult& r) { r2 = r; });
  });
  sim_.RunUntil(SimTime::Millis(16));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->reads[0].AsScalar(), 0);  // old value
  sim_.Run();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 99);
}

TEST_F(ExecutorTest, ConflictingTransactionsWaitAndSerialize) {
  Init(1);
  std::optional<TxnResult> r1, r2;
  Program p({Op::Add(0, 1)});
  RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->waits, 1u);
  EXPECT_GT(r2->wait_time, SimTime::Zero());
  // Both increments survive: 0 + 1 + 1.
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 2);
  EXPECT_EQ(counters_.Get("lock.waits"), 1u);
}

TEST_F(ExecutorTest, DeadlockVictimAbortsCleanly) {
  Init(1);
  std::optional<TxnResult> r1, r2;
  // T1: A then B. T2: B then A, offset so both hold their first lock.
  Program p1({Op::Write(0, 1), Op::Write(1, 1)});
  Program p2({Op::Write(1, 2), Op::Write(0, 2)});
  RunLocal(*exec_, 0, p1, Opts(), [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(*exec_, 0, p2, Opts(), [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r1 && r2);
  // T1 waits for B (held by T2); T2's request for A closes the cycle, so
  // T2 is the victim.
  EXPECT_EQ(r1->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->outcome, TxnOutcome::kDeadlock);
  EXPECT_EQ(exec_->deadlocked(), 1u);
  EXPECT_EQ(counters_.Get("txn.deadlocks"), 1u);
  // The victim's buffered writes never reached the store.
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 1);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(1).AsScalar(), 1);
  // No locks or graph edges leak.
  EXPECT_EQ(nodes_[0]->locks().LockedObjectCount(), 0u);
  EXPECT_EQ(graph_.EdgeCount(), 0u);
}

TEST_F(ExecutorTest, MultiNodeEagerPlanInstallsEverywhere) {
  Init(3);
  std::optional<TxnResult> result;
  // Eager-style plan: the write applies at all three nodes.
  std::vector<ExecStep> steps = {
      {0, Op::Write(4, 11)}, {1, Op::Write(4, 11)}, {2, Op::Write(4, 11)}};
  RunSteps(*exec_, 0, steps, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(result->Duration(), SimTime::Millis(30));  // 3 nodes x 10ms
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(nodes_[n]->store().GetUnchecked(4).AsScalar(), 11);
    EXPECT_EQ(nodes_[n]->store().GetUnchecked(4).ts(), result->commit_ts);
  }
}

TEST_F(ExecutorTest, CrossNodeDeadlockDetected) {
  Init(2);
  std::optional<TxnResult> r1, r2;
  // T1 locks obj0@node0 then obj0@node1; T2 locks obj0@node1 then
  // obj0@node0 — a distributed deadlock.
  std::vector<ExecStep> s1 = {{0, Op::Write(0, 1)}, {1, Op::Write(0, 1)}};
  std::vector<ExecStep> s2 = {{1, Op::Write(0, 2)}, {0, Op::Write(0, 2)}};
  RunSteps(*exec_, 0, s1, Opts(), [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunSteps(*exec_, 1, s2, Opts(), [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->outcome, TxnOutcome::kDeadlock);
}

TEST_F(ExecutorTest, UpdateRecordsCarryOldAndNewTimestamps) {
  Init(1);
  // Seed object 2 with a known timestamp.
  ASSERT_TRUE(
      nodes_[0]->store().Put(2, Value(5), Timestamp(3, 0)).ok());
  std::optional<TxnResult> result;
  Program p({Op::Add(2, 10)});
  RunLocal(*exec_, 0, p, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->updates.size(), 1u);
  const UpdateRecord& rec = result->updates[0];
  EXPECT_EQ(rec.oid, 2u);
  EXPECT_EQ(rec.old_ts, Timestamp(3, 0));
  EXPECT_EQ(rec.new_ts, result->commit_ts);
  EXPECT_EQ(rec.new_value.AsScalar(), 15);
  EXPECT_EQ(rec.origin, 0u);
}

TEST_F(ExecutorTest, RecordUpdatesOffYieldsNone) {
  Init(1);
  std::optional<TxnResult> result;
  Executor::RunOptions o = Opts();
  o.record_updates = false;
  RunLocal(*exec_, 0, Program({Op::Write(0, 1)}), o,
           [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->updates.empty());
}

TEST_F(ExecutorTest, PrecommitRejectionAbortsWithoutInstalling) {
  Init(1);
  std::optional<TxnResult> result;
  Executor::RunOptions o = Opts();
  o.precommit = [](const TxnResult& r) {
    // The acceptance test can see the would-be final value.
    EXPECT_EQ(r.updates.size(), 1u);
    EXPECT_EQ(r.updates[0].new_value.AsScalar(), -50);
    return false;
  };
  RunLocal(*exec_, 0, Program({Op::Subtract(0, 50)}), o,
           [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kRejected);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 0);
  EXPECT_EQ(exec_->rejected(), 1u);
  EXPECT_EQ(nodes_[0]->locks().LockedObjectCount(), 0u);
}

TEST_F(ExecutorTest, PrecommitAcceptCommits) {
  Init(1);
  std::optional<TxnResult> result;
  Executor::RunOptions o = Opts();
  o.precommit = [](const TxnResult&) { return true; };
  RunLocal(*exec_, 0, Program({Op::Add(0, 5)}), o,
           [&](const TxnResult& r) { result = r; });
  sim_.Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 5);
}

TEST_F(ExecutorTest, EmptyPlanCommitsImmediately) {
  Init(1);
  std::optional<TxnResult> result;
  RunSteps(*exec_, 0, {}, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(result->Duration(), SimTime::Zero());
}

TEST_F(ExecutorTest, LamportClocksAdvancePastCommits) {
  Init(2);
  std::vector<ExecStep> steps = {{0, Op::Write(0, 1)},
                                 {1, Op::Write(0, 1)}};
  RunSteps(*exec_, 0, steps, Opts(), nullptr);
  sim_.Run();
  // Node 1 observed node 0's commit timestamp, so its next local
  // timestamp must be strictly newer.
  Timestamp next = nodes_[1]->clock().Tick();
  EXPECT_GT(next, nodes_[0]->store().GetUnchecked(0).ts());
}

TEST_F(ExecutorTest, DoneCallbackMayStartNewTransaction) {
  Init(1);
  int committed = 0;
  std::function<void(const TxnResult&)> chain =
      [&](const TxnResult& r) {
        EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
        if (++committed < 3) {
          RunLocal(*exec_, 0, Program({Op::Add(0, 1)}), Opts(), chain);
        }
      };
  RunLocal(*exec_, 0, Program({Op::Add(0, 1)}), Opts(), chain);
  sim_.Run();
  EXPECT_EQ(committed, 3);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 3);
}

TEST_F(ExecutorTest, ActiveCountTracksInflight) {
  Init(1);
  EXPECT_EQ(exec_->ActiveCount(), 0u);
  RunLocal(*exec_, 0, Program({Op::Write(0, 1)}), Opts(), nullptr);
  EXPECT_EQ(exec_->ActiveCount(), 1u);
  sim_.Run();
  EXPECT_EQ(exec_->ActiveCount(), 0u);
}

TEST_F(ExecutorTest, LocalPlanMapsAllOpsToOneNode) {
  Program p({Op::Read(1), Op::Write(2, 3)});
  std::vector<ExecStep> steps;
  LocalPlanInto(7, p, &steps);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].node, 7u);
  EXPECT_EQ(steps[1].node, 7u);
  EXPECT_EQ(steps[1].op, Op::Write(2, 3));
}

TEST_F(ExecutorTest, WaitHistogramRecordsWaits) {
  Init(1);
  Program p({Op::Add(0, 1)});
  RunLocal(*exec_, 0, p, Opts(), nullptr);
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(*exec_, 0, p, Opts(), nullptr);
  });
  sim_.Run();
  const Histogram* waits =
      counters_.GetHistogram("lock.wait_micros").histogram();
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count(), 1u);
  EXPECT_GT(waits->mean(), 0.0);
}

}  // namespace
}  // namespace tdr
