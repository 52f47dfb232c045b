#include "txn/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace tdr {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  WaitForGraph graph_;
  LockManager locks_{0, 4096, &graph_};
};

TEST_F(LockManagerTest, FreeLockGrantedImmediately) {
  EXPECT_EQ(locks_.Acquire(1, 10, nullptr),
            LockManager::AcquireOutcome::kGranted);
  EXPECT_TRUE(locks_.Holds(1, 10));
  EXPECT_EQ(locks_.LockedObjectCount(), 1u);
}

// Re-acquiring a held lock answers kHeld: the caller records nothing,
// so the one grant is released once and a second release is an error.
TEST_F(LockManagerTest, ReentrantAcquireReturnsHeld) {
  ASSERT_EQ(locks_.Acquire(1, 10, nullptr),
            LockManager::AcquireOutcome::kGranted);
  EXPECT_EQ(locks_.Acquire(1, 10, nullptr),
            LockManager::AcquireOutcome::kHeld);
  EXPECT_EQ(locks_.LockedObjectCount(), 1u);
  locks_.Release(1, 10);
  EXPECT_EQ(locks_.LockedObjectCount(), 0u);
  EXPECT_EQ(locks_.bad_releases(), 0u);
  locks_.Release(1, 10);
  EXPECT_EQ(locks_.bad_releases(), 1u);
}

TEST_F(LockManagerTest, ConflictQueuesAndGrantsOnRelease) {
  bool granted = false;
  ASSERT_EQ(locks_.Acquire(1, 10, nullptr),
            LockManager::AcquireOutcome::kGranted);
  EXPECT_EQ(locks_.Acquire(2, 10, [&] { granted = true; }),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_TRUE(graph_.HasEdge(2, 1));
  EXPECT_EQ(locks_.WaiterCount(), 1u);
  EXPECT_FALSE(granted);
  locks_.Release(1, 10);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(locks_.Holds(2, 10));
  EXPECT_FALSE(graph_.HasEdge(2, 1));
  EXPECT_EQ(locks_.total_waits(), 1u);
}

TEST_F(LockManagerTest, FifoGrantOrder) {
  std::vector<int> order;
  ASSERT_EQ(locks_.Acquire(1, 10, nullptr),
            LockManager::AcquireOutcome::kGranted);
  locks_.Acquire(2, 10, [&] { order.push_back(2); });
  locks_.Acquire(3, 10, [&] { order.push_back(3); });
  // Waiter 3 waits behind holder 1 AND earlier waiter 2.
  EXPECT_TRUE(graph_.HasEdge(3, 1));
  EXPECT_TRUE(graph_.HasEdge(3, 2));
  locks_.Release(1, 10);
  EXPECT_EQ(order, (std::vector<int>{2}));
  // 3 now waits only for 2.
  EXPECT_TRUE(graph_.HasEdge(3, 2));
  EXPECT_FALSE(graph_.HasEdge(3, 1));
  locks_.Release(2, 10);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(graph_.EdgeCount(), 0u);
}

TEST_F(LockManagerTest, DeadlockDetectedOnCycle) {
  // T1 holds A, T2 holds B; T1 waits for B; T2 requesting A closes the
  // cycle and is the victim.
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(2, 2, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(1, 2, nullptr),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_EQ(locks_.Acquire(2, 1, nullptr),
            LockManager::AcquireOutcome::kDeadlock);
  EXPECT_EQ(locks_.total_deadlocks(), 1u);
  // The victim's request was withdrawn; T1 still waits for T2.
  EXPECT_TRUE(graph_.HasEdge(1, 2));
  EXPECT_FALSE(graph_.HasEdge(2, 1));
  // T2 releasing B lets T1 proceed.
  locks_.Release(2, 2);
  EXPECT_TRUE(locks_.Holds(1, 2));
}

TEST_F(LockManagerTest, ThreeWayDeadlockDetected) {
  // T1 holds A, T2 holds B, T3 holds C; T1 waits B, T2 waits C; T3
  // requesting A closes a 3-cycle.
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(2, 2, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(3, 3, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(1, 2, nullptr),
            LockManager::AcquireOutcome::kQueued);
  ASSERT_EQ(locks_.Acquire(2, 3, nullptr),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_EQ(locks_.Acquire(3, 1, nullptr),
            LockManager::AcquireOutcome::kDeadlock);
}

TEST_F(LockManagerTest, NoFalseDeadlockOnChain) {
  // T1 holds A; T2 waits A; T3 waits A. Chain, no cycle.
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  EXPECT_EQ(locks_.Acquire(2, 1, nullptr),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_EQ(locks_.Acquire(3, 1, nullptr),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_EQ(locks_.total_deadlocks(), 0u);
}

// Releasing every lock a transaction was granted, each once, empties
// the table: it keeps nothing per transaction.
TEST_F(LockManagerTest, ReleaseAllReleasesEverything) {
  for (ObjectId oid : {1, 2, 3}) {
    ASSERT_EQ(locks_.Acquire(1, oid, nullptr),
              LockManager::AcquireOutcome::kGranted);
  }
  EXPECT_EQ(locks_.LockedObjectCount(), 3u);
  for (ObjectId oid : {1, 2, 3}) locks_.Release(1, oid);
  EXPECT_EQ(locks_.LockedObjectCount(), 0u);
  EXPECT_EQ(locks_.bad_releases(), 0u);
}

// Releasing a holder's locks in grant order hands each to its FIFO
// front in that order.
TEST_F(LockManagerTest, ReleaseAllGrantsToWaiters) {
  std::vector<TxnId> grants;
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(1, 2, nullptr),
            LockManager::AcquireOutcome::kGranted);
  locks_.Acquire(2, 1, [&] { grants.push_back(2); });
  locks_.Acquire(3, 2, [&] { grants.push_back(3); });
  locks_.Release(1, 1);
  locks_.Release(1, 2);
  EXPECT_EQ(grants, (std::vector<TxnId>{2, 3}));
  EXPECT_TRUE(locks_.Holds(2, 1));
  EXPECT_TRUE(locks_.Holds(3, 2));
  EXPECT_EQ(locks_.bad_releases(), 0u);
}

TEST_F(LockManagerTest, BadReleaseCounted) {
  locks_.Release(1, 99);  // never held
  EXPECT_EQ(locks_.bad_releases(), 1u);
  ASSERT_EQ(locks_.Acquire(1, 5, nullptr),
            LockManager::AcquireOutcome::kGranted);
  locks_.Release(2, 5);  // held by someone else
  EXPECT_EQ(locks_.bad_releases(), 2u);
  EXPECT_TRUE(locks_.Holds(1, 5));
}

TEST_F(LockManagerTest, CancelRequestWithdrawsWaiter) {
  bool granted = false;
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(locks_.Acquire(2, 1, [&] { granted = true; }),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_TRUE(locks_.CancelRequest(2, 1));
  EXPECT_FALSE(locks_.CancelRequest(2, 1));  // already gone
  locks_.Release(1, 1);
  EXPECT_FALSE(granted);
  EXPECT_EQ(locks_.LockedObjectCount(), 0u);
}

TEST_F(LockManagerTest, CancelMiddleWaiterFixesEdges) {
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  locks_.Acquire(2, 1, nullptr);
  locks_.Acquire(3, 1, nullptr);
  ASSERT_TRUE(graph_.HasEdge(3, 2));
  EXPECT_TRUE(locks_.CancelRequest(2, 1));
  EXPECT_FALSE(graph_.HasEdge(3, 2));
  EXPECT_TRUE(graph_.HasEdge(3, 1));
  EXPECT_FALSE(graph_.HasEdge(2, 1));
}

TEST_F(LockManagerTest, CrossNodeDeadlockViaSharedGraph) {
  // Two lock managers (two nodes) share the wait-for graph: T1 holds
  // object 1 at node A, T2 holds object 1 at node B; each then requests
  // the other's object — a distributed deadlock, detected globally.
  LockManager node_b(1, 4096, &graph_);
  ASSERT_EQ(locks_.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(node_b.Acquire(2, 1, nullptr),
            LockManager::AcquireOutcome::kGranted);
  ASSERT_EQ(node_b.Acquire(1, 1, nullptr),
            LockManager::AcquireOutcome::kQueued);
  EXPECT_EQ(locks_.Acquire(2, 1, nullptr),
            LockManager::AcquireOutcome::kDeadlock);
}

}  // namespace
}  // namespace tdr
