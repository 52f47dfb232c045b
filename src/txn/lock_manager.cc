#include "txn/lock_manager.h"

#include <cassert>
#include <utility>

namespace tdr {

std::uint32_t LockManager::AcquireWaiter(TxnId txn, sim::Callback on_grant) {
  std::uint32_t idx;
  if (free_waiter_ != kNil) {
    idx = free_waiter_;
    free_waiter_ = waiters_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(waiters_.size());
    waiters_.emplace_back();
  }
  Waiter& w = waiters_[idx];
  w.txn = txn;
  w.on_grant = std::move(on_grant);
  w.next = kNil;
  return idx;
}

void LockManager::RecycleWaiter(std::uint32_t idx) {
  Waiter& w = waiters_[idx];
  w.txn = kInvalidTxnId;
  w.on_grant = nullptr;
  w.next = free_waiter_;
  free_waiter_ = idx;
}

LockManager::AcquireOutcome LockManager::Acquire(TxnId txn, ObjectId oid,
                                                 GrantCallback on_grant) {
  assert(oid < db_size_ && "object id outside the lock table");
  auto [s, inserted] = slots_.FindOrInsert(Key(oid), Slot{txn, kNil, kNil});
  if (inserted) return AcquireOutcome::kGranted;
  if (s->holder == txn) return AcquireOutcome::kHeld;
  // Must wait. Tentatively enqueue and add wait-for edges — edge to the
  // holder and to each earlier waiter (FIFO queues mean you wait behind
  // them too) — then test whether this request closes a cycle.
  std::uint32_t prev_tail = s->q_tail;
  std::uint32_t w = AcquireWaiter(txn, std::move(on_grant));
  if (prev_tail == kNil) {
    s->q_head = w;
  } else {
    waiters_[prev_tail].next = w;
  }
  s->q_tail = w;
  graph_->AddEdge(txn, s->holder);
  for (std::uint32_t i = s->q_head; i != w; i = waiters_[i].next) {
    graph_->AddEdge(txn, waiters_[i].txn);
  }
  if (detect_cycles_ && graph_->HasCycleFrom(txn)) {
    // The requester is the deadlock victim: withdraw the request.
    ++total_deadlocks_;
    if (prev_tail == kNil) {
      s->q_head = kNil;
    } else {
      waiters_[prev_tail].next = kNil;
    }
    s->q_tail = prev_tail;
    RecycleWaiter(w);
    graph_->ClearOutEdges(txn);
    return AcquireOutcome::kDeadlock;
  }
  ++total_waits_;
  ++waiter_count_;
  return AcquireOutcome::kQueued;
}

void LockManager::Release(TxnId txn, ObjectId oid) {
  assert(oid < db_size_);
  Slot* s = slots_.Find(Key(oid));
  if (s == nullptr || s->holder != txn) {
    ++bad_releases_;
    return;
  }
  if (s->q_head == kNil) {
    slots_.EraseAt(s);
    return;
  }
  // Grant to the FIFO front. Move the callback out of the pool, and
  // finish with the entry, before invoking: the grant handler may
  // reenter Acquire, which may grow the pool or rehash the table.
  std::uint32_t front = s->q_head;
  TxnId next_txn = waiters_[front].txn;
  sim::Callback on_grant = std::move(waiters_[front].on_grant);
  s->q_head = waiters_[front].next;
  if (s->q_head == kNil) s->q_tail = kNil;
  RecycleWaiter(front);
  --waiter_count_;
  s->holder = next_txn;
  // The granted transaction no longer waits for anyone (it was the
  // front: its only edges were to the old holder).
  graph_->ClearOutEdges(next_txn);
  // Remaining waiters no longer wait for the old holder; they already
  // hold edges to the new holder (it was an earlier waiter).
  for (std::uint32_t i = s->q_head; i != kNil; i = waiters_[i].next) {
    graph_->RemoveEdge(waiters_[i].txn, txn);
  }
  if (on_grant) on_grant();
}

bool LockManager::CancelRequest(TxnId txn, ObjectId oid) {
  assert(oid < db_size_);
  Slot* s = slots_.Find(Key(oid));
  if (s == nullptr) return false;  // unlocked: nobody queues
  std::uint32_t prev = kNil;
  std::uint32_t cur = s->q_head;
  while (cur != kNil && waiters_[cur].txn != txn) {
    prev = cur;
    cur = waiters_[cur].next;
  }
  if (cur == kNil) return false;
  // Later waiters drop their edge to the cancelled one.
  for (std::uint32_t i = waiters_[cur].next; i != kNil;
       i = waiters_[i].next) {
    graph_->RemoveEdge(waiters_[i].txn, txn);
  }
  if (prev == kNil) {
    s->q_head = waiters_[cur].next;
  } else {
    waiters_[prev].next = waiters_[cur].next;
  }
  if (s->q_tail == cur) s->q_tail = prev;
  RecycleWaiter(cur);
  --waiter_count_;
  graph_->ClearOutEdges(txn);
  return true;
}

bool LockManager::Holds(TxnId txn, ObjectId oid) const {
  assert(oid < db_size_);
  const Slot* s = slots_.Find(Key(oid));
  return s != nullptr && s->holder == txn;
}

}  // namespace tdr
