// Randomized model check of the LockManager: drive it with random
// acquire / release / cancel sequences against a simple reference model
// and assert full behavioural agreement plus structural invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "txn/lock_manager.h"
#include "util/rng.h"

namespace tdr {
namespace {

/// Brain-dead reference lock table: holder + FIFO queue per object, no
/// wait-for-graph (the model test checks deadlock decisions separately
/// by replaying the real manager's answer — cycle detection itself is
/// covered by wait_for_graph_test).
struct RefModel {
  struct L {
    TxnId holder = kInvalidTxnId;
    std::deque<TxnId> queue;
  };
  std::map<ObjectId, L> locks;

  bool Holds(TxnId t, ObjectId o) const {
    auto it = locks.find(o);
    return it != locks.end() && it->second.holder == t;
  }
  bool Queued(TxnId t, ObjectId o) const {
    auto it = locks.find(o);
    if (it == locks.end()) return false;
    for (TxnId q : it->second.queue) {
      if (q == t) return true;
    }
    return false;
  }
};

class LockModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockModelTest, RandomSequencesAgreeWithReference) {
  Rng rng(GetParam());
  WaitForGraph graph;
  // The lock table holds locked objects only, so a 2^40-object table
  // costs what a small one does.
  constexpr std::uint64_t kDbSize = 1ull << 40;
  LockManager real(0, kDbSize, &graph);
  RefModel ref;
  std::map<TxnId, std::set<ObjectId>> granted;  // from grant callbacks

  const int kTxns = 12;
  const int kSteps = 3000;
  // Sparse ids across the table, the first and last included. Half the
  // requests go to the six hot ones, so requests queue, deadlock and
  // cancel; the rest spread over all of them, so many are held at once.
  std::vector<ObjectId> objects = {0, kDbSize - 1};
  while (objects.size() < 48) objects.push_back(rng.UniformInt(kDbSize));
  const std::size_t kHot = 6;
  // The table starts at 16 entries and doubles at its 13th and 25th:
  // the run must get there with waiters queued.
  std::size_t peak_locked_while_waiting = 0;

  // A txn may wait for at most one lock at a time (the documented
  // contract); track who is waiting where.
  std::map<TxnId, ObjectId> waiting_on;

  for (int step = 0; step < kSteps; ++step) {
    TxnId t = 1 + rng.UniformInt(kTxns);
    ObjectId o = objects[rng.UniformInt(
        rng.UniformInt(2) == 0 ? kHot : objects.size())];
    // Six steps in eight acquire, one releases all and one cancels.
    const std::uint64_t op = rng.UniformInt(8);
    switch (op < 6 ? 0 : op - 5) {
      case 0: {  // acquire
        if (waiting_on.count(t)) break;  // contract: one wait at a time
        bool held_before = real.Holds(t, o);
        auto outcome = real.Acquire(t, o, [&granted, &waiting_on, t, o]() {
          granted[t].insert(o);
          waiting_on.erase(t);
        });
        switch (outcome) {
          case LockManager::AcquireOutcome::kGranted: {
            // Reference: free, reentrant — or a bug.
            bool free = ref.locks[o].holder == kInvalidTxnId;
            EXPECT_TRUE(free || ref.Holds(t, o))
                << "granted but reference says busy";
            if (free) ref.locks[o].holder = t;
            break;
          }
          case LockManager::AcquireOutcome::kQueued:
            EXPECT_FALSE(held_before);
            EXPECT_NE(ref.locks[o].holder, kInvalidTxnId);
            ref.locks[o].queue.push_back(t);
            waiting_on[t] = o;
            break;
          case LockManager::AcquireOutcome::kDeadlock:
            // The reference has no graph; just assert the object was
            // busy (a deadlock answer on a free lock is impossible).
            EXPECT_NE(ref.locks[o].holder, kInvalidTxnId);
            break;
        }
        break;
      }
      case 1: {  // release all
        if (waiting_on.count(t)) break;  // cannot finish while blocked
        real.ReleaseAll(t);
        // Reference: free everything t holds; promote FIFO heads. Grant
        // callbacks in `real` updated waiting_on/granted synchronously.
        for (auto& [oid, l] : ref.locks) {
          if (l.holder != t) continue;
          if (l.queue.empty()) {
            l.holder = kInvalidTxnId;
          } else {
            l.holder = l.queue.front();
            l.queue.pop_front();
          }
        }
        break;
      }
      case 2: {  // cancel own pending request, if any
        auto it = waiting_on.find(t);
        if (it == waiting_on.end()) break;
        ObjectId oid = it->second;
        EXPECT_TRUE(real.CancelRequest(t, oid));
        auto& q = ref.locks[oid].queue;
        bool found = false;
        for (auto qit = q.begin(); qit != q.end(); ++qit) {
          if (*qit == t) {
            q.erase(qit);
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found);
        waiting_on.erase(it);
        break;
      }
    }
    // Structural agreement after every step.
    for (TxnId txn = 1; txn <= kTxns; ++txn) {
      for (ObjectId oid : objects) {
        EXPECT_EQ(real.Holds(txn, oid), ref.Holds(txn, oid))
            << "step " << step << " txn " << txn << " obj " << oid;
      }
    }
    if (real.WaiterCount() > 0) {
      peak_locked_while_waiting =
          std::max(peak_locked_while_waiting, real.LockedObjectCount());
    }
  }
  EXPECT_GE(peak_locked_while_waiting, 25u);
  // Drain: release everything, expect a completely clean end state.
  for (int round = 0; round < kTxns + 1; ++round) {
    for (TxnId t = 1; t <= kTxns; ++t) {
      if (waiting_on.count(t)) continue;
      real.ReleaseAll(t);
      for (auto& [oid, l] : ref.locks) {
        if (l.holder != t) continue;
        if (l.queue.empty()) {
          l.holder = kInvalidTxnId;
        } else {
          l.holder = l.queue.front();
          l.queue.pop_front();
        }
      }
    }
  }
  EXPECT_EQ(real.LockedObjectCount(), 0u);
  EXPECT_EQ(real.WaiterCount(), 0u);
  EXPECT_EQ(graph.EdgeCount(), 0u);
  EXPECT_EQ(real.bad_releases(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tdr
