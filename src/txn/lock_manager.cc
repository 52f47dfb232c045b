#include "txn/lock_manager.h"

#include <algorithm>
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

std::uint32_t LockManager::AcquireHeldEntry() {
  if (!held_free_.empty()) {
    std::uint32_t idx = held_free_.back();
    held_free_.pop_back();
    return idx;
  }
  std::uint32_t idx = static_cast<std::uint32_t>(held_entries_.size());
  held_entries_.emplace_back();
  // Uniform birth capacity. Free-list entries are picked arbitrarily, so
  // without a shared floor each entry re-learns its capacity the hard
  // way (a steady trickle of growth reallocations instead of a one-time
  // ratchet). 160 covers a full batch apply (<= 128 record locks) plus
  // root-transaction slack.
  held_entries_.back().reserve(160);
  return idx;
}

void LockManager::RecycleHeldEntry(std::uint32_t idx) {
  held_entries_[idx].clear();  // capacity retained
  held_free_.push_back(idx);
}

void LockManager::HeldPush(TxnId txn, ObjectId oid) {
  std::uint32_t* entry = held_index_.Find(txn);
  if (entry == nullptr) {
    std::uint32_t idx = AcquireHeldEntry();
    held_index_.Insert(txn, idx);
    held_entries_[idx].push_back(oid);
    return;
  }
  held_entries_[*entry].push_back(oid);
}

void LockManager::HeldErase(TxnId txn, ObjectId oid) {
  std::uint32_t* entry = held_index_.Find(txn);
  if (entry == nullptr) return;
  std::vector<ObjectId>& v = held_entries_[*entry];
  v.erase(std::remove(v.begin(), v.end(), oid), v.end());
  if (v.empty()) {
    std::uint32_t idx = *entry;
    held_index_.Erase(txn);
    RecycleHeldEntry(idx);
  }
}

LockManager::AcquireOutcome LockManager::Acquire(TxnId txn, ObjectId oid,
                                                 GrantCallback on_grant) {
  assert(oid < slots_.size() && "object id outside the lock table");
  Slot& s = slots_[oid];
  if (s.holder == kInvalidTxnId) {
    s.holder = txn;
    ++locked_objects_;
    HeldPush(txn, oid);
    return AcquireOutcome::kGranted;
  }
  if (s.holder == txn) {
    return AcquireOutcome::kGranted;  // reentrant
  }
  // Must wait. Tentatively enqueue and add wait-for edges — edge to the
  // holder and to each earlier waiter (FIFO queues mean you wait behind
  // them too) — then test whether this request closes a cycle.
  std::uint32_t prev_tail = s.q_tail;
  std::uint32_t w = AcquireWaiter(txn, std::move(on_grant));
  if (prev_tail == kNil) {
    s.q_head = w;
  } else {
    waiters_[prev_tail].next = w;
  }
  s.q_tail = w;
  graph_->AddEdge(txn, s.holder);
  for (std::uint32_t i = s.q_head; i != w; i = waiters_[i].next) {
    graph_->AddEdge(txn, waiters_[i].txn);
  }
  if (detect_cycles_ && graph_->HasCycleFrom(txn)) {
    // The requester is the deadlock victim: withdraw the request.
    ++total_deadlocks_;
    if (prev_tail == kNil) {
      s.q_head = kNil;
    } else {
      waiters_[prev_tail].next = kNil;
    }
    s.q_tail = prev_tail;
    RecycleWaiter(w);
    graph_->ClearOutEdges(txn);
    return AcquireOutcome::kDeadlock;
  }
  ++total_waits_;
  ++waiter_count_;
  return AcquireOutcome::kQueued;
}

void LockManager::Release(TxnId txn, ObjectId oid) {
  ReleaseLocked(txn, oid, /*update_held=*/true);
}

void LockManager::ReleaseLocked(TxnId txn, ObjectId oid, bool update_held) {
  assert(oid < slots_.size());
  Slot& s = slots_[oid];
  if (s.holder != txn) {
    ++bad_releases_;
    return;
  }
  if (update_held) HeldErase(txn, oid);
  if (s.q_head == kNil) {
    s.holder = kInvalidTxnId;
    --locked_objects_;
    return;
  }
  // Grant to the FIFO front. Move the callback out of the pool before
  // invoking: the grant handler may reenter Acquire and grow the pool.
  std::uint32_t front = s.q_head;
  TxnId next_txn = waiters_[front].txn;
  sim::Callback on_grant = std::move(waiters_[front].on_grant);
  s.q_head = waiters_[front].next;
  if (s.q_head == kNil) s.q_tail = kNil;
  RecycleWaiter(front);
  --waiter_count_;
  s.holder = next_txn;
  HeldPush(next_txn, oid);
  // The granted transaction no longer waits for anyone (it was the
  // front: its only edges were to the old holder).
  graph_->ClearOutEdges(next_txn);
  // Remaining waiters no longer wait for the old holder; they already
  // hold edges to the new holder (it was an earlier waiter).
  for (std::uint32_t i = s.q_head; i != kNil; i = waiters_[i].next) {
    graph_->RemoveEdge(waiters_[i].txn, txn);
  }
  if (on_grant) on_grant();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::uint32_t* entry = held_index_.Find(txn);
  if (entry == nullptr) return;
  // Detach the whole entry into a pooled scratch vector: Release fires
  // grant callbacks that may reenter (and ReleaseAll other txns), so
  // the entry must be off the index before the first release.
  std::uint32_t held = *entry;
  std::uint32_t scratch = AcquireHeldEntry();
  held_entries_[scratch].swap(held_entries_[held]);
  held_index_.Erase(txn);
  RecycleHeldEntry(held);
  for (std::size_t i = 0; i < held_entries_[scratch].size(); ++i) {
    ReleaseLocked(txn, held_entries_[scratch][i], /*update_held=*/false);
  }
  RecycleHeldEntry(scratch);
}

bool LockManager::CancelRequest(TxnId txn, ObjectId oid) {
  assert(oid < slots_.size());
  Slot& s = slots_[oid];
  std::uint32_t prev = kNil;
  std::uint32_t cur = s.q_head;
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
    s.q_head = waiters_[cur].next;
  } else {
    waiters_[prev].next = waiters_[cur].next;
  }
  if (s.q_tail == cur) s.q_tail = prev;
  RecycleWaiter(cur);
  --waiter_count_;
  graph_->ClearOutEdges(txn);
  return true;
}

bool LockManager::Holds(TxnId txn, ObjectId oid) const {
  assert(oid < slots_.size());
  return slots_[oid].holder == txn;
}

std::size_t LockManager::HeldCount(TxnId txn) const {
  const std::uint32_t* entry = held_index_.Find(txn);
  return entry == nullptr ? 0 : held_entries_[*entry].size();
}

}  // namespace tdr
