// Tests for the executor's ablation features: wait-timeout deadlock
// detection, read locking, free (parallel) steps, and the quorum step
// kinds.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "plan_helpers.h"
#include "sim/simulator.h"
#include "txn/executor.h"

namespace tdr {
namespace {

class ExecutorAblationTest : public ::testing::Test {
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

TEST_F(ExecutorAblationTest, WaitTimeoutAbortsLongWait) {
  Init(1);
  // T1 holds the lock for 500ms (50 actions); T2 with a 100ms timeout
  // gives up even though there is no deadlock.
  std::vector<Op> long_ops(50, Op::Add(0, 1));
  RunLocal(*exec_, 0, Program(long_ops), Opts(), nullptr);
  std::optional<TxnResult> r2;
  sim_.ScheduleAt(SimTime::Millis(5), [&] {
    Executor::RunOptions o = Opts();
    o.wait_timeout = SimTime::Millis(100);
    RunLocal(*exec_, 0, Program({Op::Add(0, 1)}), o,
             [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->outcome, TxnOutcome::kDeadlock);
  EXPECT_TRUE(r2->timed_out);
  EXPECT_EQ(exec_->wait_timeouts(), 1u);
  EXPECT_EQ(counters_.Get("txn.wait_timeouts"), 1u);
  // T1 still finished; no lock leaks.
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 50);
  EXPECT_EQ(nodes_[0]->locks().LockedObjectCount(), 0u);
  EXPECT_EQ(graph_.EdgeCount(), 0u);
}

TEST_F(ExecutorAblationTest, TimeoutDoesNotFireAfterGrant) {
  Init(1);
  // T1 holds for 30ms; T2's timeout is 100ms: the grant wins the race
  // and T2 commits; the stale timeout event must be a no-op.
  RunLocal(*exec_, 0, Program({Op::Add(0, 1), Op::Add(1, 1), Op::Add(2, 1)}),
           Opts(), nullptr);
  std::optional<TxnResult> r2;
  sim_.ScheduleAt(SimTime::Millis(5), [&] {
    Executor::RunOptions o = Opts();
    o.wait_timeout = SimTime::Millis(100);
    RunLocal(*exec_, 0, Program({Op::Add(0, 5)}), o,
             [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->outcome, TxnOutcome::kCommitted);
  EXPECT_FALSE(r2->timed_out);
  EXPECT_EQ(exec_->wait_timeouts(), 0u);
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(0).AsScalar(), 6);
}

TEST_F(ExecutorAblationTest, TimeoutResolvesDeadlockWithoutGraph) {
  Init(1);
  // Classic A/B cross: with timeouts BOTH could die, but the wait-for
  // graph still catches the cycle first (requester = victim), so
  // exactly one survives; the timeout then must not double-abort.
  Executor::RunOptions o = Opts();
  o.wait_timeout = SimTime::Millis(500);
  std::optional<TxnResult> r1, r2;
  RunLocal(*exec_, 0, Program({Op::Write(0, 1), Op::Write(1, 1)}), o,
           [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(*exec_, 0, Program({Op::Write(1, 2), Op::Write(0, 2)}), o,
             [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r2->outcome, TxnOutcome::kDeadlock);
  EXPECT_FALSE(r2->timed_out);  // graph got it, not the timer
}

TEST_F(ExecutorAblationTest, TimeoutOnlyDetectionClearsRealDeadlock) {
  // Production configuration: no wait-for-graph victims, timeouts only.
  // A genuine A/B deadlock must clear after ~the timeout, with exactly
  // one victim, and the survivor commits.
  nodes_.clear();
  nodes_.push_back(
      std::make_unique<Node>(0, 16, &graph_, /*detect_cycles=*/false));
  exec_ = std::make_unique<Executor>(&sim_,
                                     std::vector<Node*>{nodes_[0].get()},
                                     &counters_);
  Executor::RunOptions o = Opts();
  o.wait_timeout = SimTime::Millis(200);
  std::optional<TxnResult> r1, r2;
  RunLocal(*exec_, 0, Program({Op::Write(0, 1), Op::Write(1, 1)}), o,
           [&](const TxnResult& r) { r1 = r; });
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    RunLocal(*exec_, 0, Program({Op::Write(1, 2), Op::Write(0, 2)}), o,
             [&](const TxnResult& r) { r2 = r; });
  });
  sim_.Run();
  ASSERT_TRUE(r1 && r2);
  int committed = (r1->outcome == TxnOutcome::kCommitted) +
                  (r2->outcome == TxnOutcome::kCommitted);
  int timed_out = r1->timed_out + r2->timed_out;
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(timed_out, 1);
  // The victim died no earlier than its timeout.
  const TxnResult& victim = r1->timed_out ? *r1 : *r2;
  EXPECT_GE(victim.Duration(), SimTime::Millis(200));
  EXPECT_EQ(nodes_[0]->locks().LockedObjectCount(), 0u);
  EXPECT_EQ(graph_.EdgeCount(), 0u);
}

TEST_F(ExecutorAblationTest, LockReadsMakesReadersBlock) {
  Init(1);
  // Writer holds object 0; a reader with lock_reads must wait for it.
  RunLocal(*exec_, 0, Program({Op::Add(0, 1), Op::Add(1, 1)}), Opts(), nullptr);
  std::optional<TxnResult> reader;
  sim_.ScheduleAt(SimTime::Millis(1), [&] {
    Executor::RunOptions o = Opts();
    o.lock_reads = true;
    RunLocal(*exec_, 0, Program({Op::Read(0)}), o,
             [&](const TxnResult& r) { reader = r; });
  });
  sim_.Run();
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(counters_.Get("lock.waits"), 1u);  // the reader's
  // It read the committed value AFTER the writer.
  EXPECT_EQ(reader->reads[0].AsScalar(), 1);
}

TEST_F(ExecutorAblationTest, UnchargedStepsAreFree) {
  Init(3);
  // Footnote-2 style: replica steps free, only the origin pays.
  std::vector<ExecStep> steps;
  for (NodeId n = 0; n < 3; ++n) {
    ExecStep s;
    s.node = n;
    s.op = Op::Write(4, 7);
    s.charge = (n == 0);
    steps.push_back(s);
  }
  std::optional<TxnResult> result;
  RunSteps(*exec_, 0, steps, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->Duration(), SimTime::Millis(10));  // one action only
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(nodes_[n]->store().GetUnchecked(4).AsScalar(), 7);
  }
}

TEST_F(ExecutorAblationTest, QuorumApplyInstallsNewestEverywhere) {
  Init(3);
  // Node 1 has the newest committed version; nodes 0 and 2 are stale.
  ASSERT_TRUE(
      nodes_[0]->store().Put(5, Value(10), Timestamp(1, 0)).ok());
  ASSERT_TRUE(
      nodes_[1]->store().Put(5, Value(30), Timestamp(7, 1)).ok());
  // Quorum write {0,1,2}: Add(5, 1) must produce 31 from node 1's copy
  // and install 31 at all three.
  std::vector<ExecStep> steps;
  for (NodeId n = 0; n < 3; ++n) {
    ExecStep s;
    s.node = n;
    s.op = Op::Add(5, 1);
    s.op_index = 0;
    s.kind = n < 2 ? StepKind::kLockOnly : StepKind::kQuorumApply;
    steps.push_back(s);
  }
  std::optional<TxnResult> result;
  RunSteps(*exec_, 0, steps, Opts(), [&](const TxnResult& r) { result = r; });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(nodes_[n]->store().GetUnchecked(5).AsScalar(), 31)
        << "node " << n;
  }
}

TEST_F(ExecutorAblationTest, QuorumApplySeesOwnEarlierWrite) {
  Init(2);
  // Two quorum ops on the same object in one transaction: the second
  // must build on the first's buffered value, not the stale store.
  std::vector<ExecStep> steps;
  for (int op_index = 0; op_index < 2; ++op_index) {
    for (NodeId n = 0; n < 2; ++n) {
      ExecStep s;
      s.node = n;
      s.op = Op::Add(3, 10);
      s.op_index = op_index;
      s.kind = n == 0 ? StepKind::kLockOnly : StepKind::kQuorumApply;
      steps.push_back(s);
    }
  }
  RunSteps(*exec_, 0, steps, Opts(), nullptr);
  sim_.Run();
  EXPECT_EQ(nodes_[0]->store().GetUnchecked(3).AsScalar(), 20);
  EXPECT_EQ(nodes_[1]->store().GetUnchecked(3).AsScalar(), 20);
}

}  // namespace
}  // namespace tdr
