#include "txn/executor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/logging.h"

namespace tdr {

std::string_view TxnOutcomeToString(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kDeadlock:
      return "deadlock";
    case TxnOutcome::kRejected:
      return "rejected";
    case TxnOutcome::kUnavailable:
      return "unavailable";
  }
  return "?";
}

Executor::Executor(sim::Simulator* sim, std::vector<Node*> nodes,
                   obs::MetricsRegistry* metrics)
    : sim_(sim), nodes_(std::move(nodes)) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    assert(nodes_[i] != nullptr && nodes_[i]->id() == i);
  }
  m_started_ = metrics->GetCounter("txn.started");
  m_lock_waits_ = metrics->GetCounter("lock.waits");
  m_deadlocks_ = metrics->GetCounter("txn.deadlocks");
  m_wait_timeouts_ = metrics->GetCounter("txn.wait_timeouts");
  m_committed_ = metrics->GetCounter("txn.committed");
  m_rejected_ = metrics->GetCounter("txn.rejected");
  m_wait_micros_ = metrics->GetHistogram("lock.wait_micros");
}

void Executor::Emit(TraceEventType type, const Inflight* t, NodeId node,
                    ObjectId oid, std::string detail) {
  if (trace_ == nullptr) return;
  TraceEvent event;
  event.time = sim_->Now();
  event.type = type;
  event.txn = t->id;
  event.node = node;
  event.oid = oid;
  event.detail = std::move(detail);
  trace_->OnEvent(event);
}

Executor::Inflight* Executor::AcquireInflight() {
  std::uint32_t idx;
  if (!free_inflight_.empty()) {
    idx = free_inflight_.back();
    free_inflight_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::make_unique<Inflight>());
    pool_[idx]->pool_index = idx;
    pool_[idx]->steps.reserve(kPlanFloor);
    pool_[idx]->held.reserve(kPlanFloor);
  }
  return pool_[idx].get();
}

void Executor::RecycleInflight(Inflight* t) {
  // Clear everything but keep every vector's capacity — that is the
  // whole point of the pool. A recycled record keeps id=kInvalidTxnId
  // until reused, so stale (this, t, id) captures fail their id check.
  t->id = kInvalidTxnId;
  t->steps.clear();
  t->pc = 0;
  t->opts.precommit = nullptr;  // release any captured closure now
  t->opts.observer = nullptr;
  t->done = nullptr;
  t->buffer.clear();
  t->observed_ts.clear();
  t->touched_nodes.clear();
  t->held.clear();
  t->result.reads.clear();
  t->result.updates.clear();
  t->result.outcome = TxnOutcome::kDeadlock;
  t->result.timed_out = false;
  free_inflight_.push_back(t->pool_index);
}

Value* Executor::FindWrite(Inflight* t, NodeId node, ObjectId oid) {
  auto it = std::lower_bound(
      t->buffer.begin(), t->buffer.end(), std::make_pair(node, oid),
      [](const WriteEntry& e, const std::pair<NodeId, ObjectId>& k) {
        return e.node != k.first ? e.node < k.first : e.oid < k.second;
      });
  if (it != t->buffer.end() && it->node == node && it->oid == oid) {
    return &it->value;
  }
  return nullptr;
}

void Executor::PutWrite(Inflight* t, NodeId node, ObjectId oid,
                        Value value) {
  auto it = std::lower_bound(
      t->buffer.begin(), t->buffer.end(), std::make_pair(node, oid),
      [](const WriteEntry& e, const std::pair<NodeId, ObjectId>& k) {
        return e.node != k.first ? e.node < k.first : e.oid < k.second;
      });
  if (it != t->buffer.end() && it->node == node && it->oid == oid) {
    it->value = std::move(value);
    return;
  }
  t->buffer.insert(it, WriteEntry{node, oid, std::move(value)});
}

void Executor::ObserveTs(Inflight* t, NodeId node, ObjectId oid,
                         const Timestamp& ts) {
  auto it = std::lower_bound(
      t->observed_ts.begin(), t->observed_ts.end(),
      std::make_pair(node, oid),
      [](const ObservedEntry& e, const std::pair<NodeId, ObjectId>& k) {
        return e.node != k.first ? e.node < k.first : e.oid < k.second;
      });
  if (it != t->observed_ts.end() && it->node == node && it->oid == oid) {
    return;  // first observation wins (the pre-txn timestamp)
  }
  t->observed_ts.insert(it, ObservedEntry{node, oid, ts});
}

const Timestamp* Executor::FindObserved(const Inflight* t, NodeId node,
                                        ObjectId oid) const {
  auto it = std::lower_bound(
      t->observed_ts.begin(), t->observed_ts.end(),
      std::make_pair(node, oid),
      [](const ObservedEntry& e, const std::pair<NodeId, ObjectId>& k) {
        return e.node != k.first ? e.node < k.first : e.oid < k.second;
      });
  if (it != t->observed_ts.end() && it->node == node && it->oid == oid) {
    return &it->ts;
  }
  return nullptr;
}

void Executor::TouchNode(Inflight* t, NodeId node) {
  auto it = std::lower_bound(t->touched_nodes.begin(),
                             t->touched_nodes.end(), node);
  if (it == t->touched_nodes.end() || *it != node) {
    t->touched_nodes.insert(it, node);
  }
}

TxnId Executor::RunPlan(NodeId origin, RunOptions opts,
                        DoneCallback done) {
  Inflight* t = AcquireInflight();
  // Swap, not move: the scratch vector inherits this record's retained
  // capacity, so plan buffers circulate between the scratch and the
  // pool without ever being freed.
  t->steps.swap(plan_scratch_);
  TxnId id = next_txn_id_++;
  t->id = id;
  t->origin = origin;
  t->opts = std::move(opts);
  t->done = std::move(done);
  t->result.id = id;
  t->result.origin = origin;
  t->result.start_time = sim_->Now();
  ++active_;
  m_started_.Increment();
  if (trace_ != nullptr) {
    Emit(TraceEventType::kTxnStart, t, origin, 0,
         StrPrintf("%zu steps", t->steps.size()));
  }
  StepAcquire(t);
  return id;
}

void Executor::StepAcquire(Inflight* t) {
  if (t->pc >= t->steps.size()) {
    // All steps applied. Build the update records now (with a
    // placeholder commit timestamp) so the precommit hook — the
    // two-tier acceptance criterion — can inspect the final written
    // values as well as the reads.
    t->result.end_time = sim_->Now();
    if (t->opts.record_updates) BuildUpdateRecords(t, Timestamp::Zero());
    if (t->opts.precommit && !t->opts.precommit(t->result)) {
      Abort(t, TxnOutcome::kRejected);
      return;
    }
    Commit(t);
    return;
  }
  const ExecStep& step = t->steps[t->pc];
  // Start the cache miss ApplyStep will take one action_time from now,
  // when it reads the step's store slot. See DESIGN.md §12.6.
  node(step.node)->store().Prefetch(step.op.oid);
  TouchNode(t, step.node);
  if (!step.op.IsWrite() && !t->opts.lock_reads) {
    // Committed-read: no lock.
    StepExecute(t);
    return;
  }
  Node* n = node(step.node);
  TxnId id = t->id;
  LockManager::AcquireOutcome outcome = n->locks().Acquire(
      id, step.op.oid, [this, t, id]() {
        // Grants for finished transactions cannot actually happen —
        // queued requests are cancelled before abort — but check the id
        // anyway: TxnIds are never reused, so a recycled record makes a
        // stale grant a no-op.
        if (t->id != id) return;
        const ExecStep& granted = t->steps[t->pc];
        t->held.push_back(HeldLock{granted.node, granted.op.oid});
        SimTime waited = sim_->Now() - t->wait_started;
        m_wait_micros_.Record(static_cast<std::uint64_t>(waited.micros()));
        if (trace_ != nullptr) {
          Emit(TraceEventType::kLockGrant, t, granted.node, granted.op.oid,
               StrPrintf("after %s", waited.ToString().c_str()));
        }
        StepExecute(t);
      });
  switch (outcome) {
    case LockManager::AcquireOutcome::kGranted:
      t->held.push_back(HeldLock{step.node, step.op.oid});
      [[fallthrough]];
    case LockManager::AcquireOutcome::kHeld:
      StepExecute(t);
      return;
    case LockManager::AcquireOutcome::kQueued: {
      t->wait_started = sim_->Now();
      m_lock_waits_.Increment();
      Emit(TraceEventType::kLockWait, t, step.node, step.op.oid);
      if (t->opts.wait_timeout > SimTime::Zero()) {
        NodeId wait_node = step.node;
        ObjectId wait_oid = step.op.oid;
        sim_->ScheduleAfterNode(
            wait_node, t->opts.wait_timeout,
            [this, t, id, wait_node, wait_oid]() {
              if (t->id != id) return;  // already finished
              // Withdraw the request iff it is still queued; a false
              // return means the lock was granted in the meantime.
              if (!node(wait_node)->locks().CancelRequest(id, wait_oid)) {
                return;
              }
              t->result.timed_out = true;
              m_wait_timeouts_.Increment();
              Abort(t, TxnOutcome::kDeadlock);
            });
      }
      return;
    }
    case LockManager::AcquireOutcome::kDeadlock:
      m_deadlocks_.Increment();
      Abort(t, TxnOutcome::kDeadlock);
      return;
  }
}

void Executor::StepExecute(Inflight* t) {
  const ExecStep& step = t->steps[t->pc];
  SimTime cost = step.charge ? t->opts.action_time : SimTime::Zero();
  TxnId id = t->id;
  // The step mutates step.node's store/locks: run it on that node's
  // worker under the thread backend.
  sim_->ScheduleAfterNode(step.node, cost, [this, t, id]() {
    if (t->id != id) return;
    ApplyStep(t);
  });
}

void Executor::ApplyStep(Inflight* t) {
  const ExecStep& step = t->steps[t->pc];
  Node* n = node(step.node);
  if (step.kind == StepKind::kLockOnly) {
    // Lock held; the kQuorumApply step installs the value later.
    ++t->pc;
    StepAcquire(t);
    return;
  }
  if (step.kind == StepKind::kQuorumApply) {
    ApplyQuorumStep(t);
    return;
  }
  Value* buffered = FindWrite(t, step.node, step.op.oid);
  if (step.op.type == OpType::kRead) {
    // Visible value: own buffered write, else last committed value.
    t->result.reads.push_back(
        buffered != nullptr ? *buffered
                            : n->store().GetUnchecked(step.op.oid).value());
  } else if (buffered != nullptr) {
    step.op.ApplyTo(buffered);
  } else {
    // Remember the timestamp the transaction saw before its first
    // write here — lazy replica updates carry it as their "old time"
    // (Figure 4).
    const StoredObject& obj = n->store().GetUnchecked(step.op.oid);
    ObserveTs(t, step.node, step.op.oid, obj.ts());
    Value visible = obj.value();
    step.op.ApplyTo(&visible);
    PutWrite(t, step.node, step.op.oid, std::move(visible));
  }
  if (trace_ != nullptr) {
    Emit(TraceEventType::kOpApply, t, step.node, step.op.oid,
         step.op.ToString());
  }
  ++t->pc;
  StepAcquire(t);
}

void Executor::ApplyQuorumStep(Inflight* t) {
  const ExecStep& step = t->steps[t->pc];
  // Members of this op's write set: every step sharing its op_index.
  // All of them are locked by now (the kLockOnly steps precede this
  // one), so their values are frozen: read the newest version, apply
  // the op once, install the same value at every member. The member
  // list lives in executor scratch; it is fully consumed before
  // StepAcquire can reenter this function.
  std::vector<NodeId>& members = members_scratch_;
  members.clear();
  for (const ExecStep& s : t->steps) {
    if (s.op_index == step.op_index) members.push_back(s.node);
  }
  Value best;
  Timestamp best_ts;
  bool have_own = false;
  for (NodeId member : members) {
    if (const Value* buffered = FindWrite(t, member, step.op.oid)) {
      // Our own earlier (buffered) write is newer than anything
      // committed; prefer it.
      best = *buffered;
      have_own = true;
      break;
    }
    const StoredObject& obj =
        node(member)->store().GetUnchecked(step.op.oid);
    if (members.front() == member || obj.ts() > best_ts) {
      best = obj.value();
      best_ts = obj.ts();
    }
  }
  if (!have_own) {
    // Record the observed timestamp at the step's node for lazy
    // record-building symmetry.
    ObserveTs(t, step.node, step.op.oid, best_ts);
  }
  step.op.ApplyTo(&best);
  for (NodeId member : members) {
    if (Value* slot = FindWrite(t, member, step.op.oid)) {
      *slot = best;
    } else {
      PutWrite(t, member, step.op.oid, best);
    }
  }
  if (trace_ != nullptr) {
    Emit(TraceEventType::kOpApply, t, step.node, step.op.oid,
         StrPrintf("quorum %s -> %s", step.op.ToString().c_str(),
                   best.ToString().c_str()));
  }
  ++t->pc;
  StepAcquire(t);
}

void Executor::BuildUpdateRecords(Inflight* t, Timestamp commit_ts) {
  // One record per installed (node, object), rebuilt from scratch so the
  // precommit pass (placeholder timestamp) and the commit pass (real
  // timestamp) agree. The buffer is sorted by (node, oid) — the same
  // order the ordered map it replaced iterated in.
  t->result.updates.clear();
  for (const WriteEntry& e : t->buffer) {
    UpdateRecord rec;
    rec.txn = t->id;
    rec.oid = e.oid;
    const Timestamp* observed = FindObserved(t, e.node, e.oid);
    rec.old_ts = observed != nullptr ? *observed : Timestamp::Zero();
    rec.new_ts = commit_ts;
    rec.new_value = e.value;
    rec.origin = e.node;
    t->result.updates.push_back(std::move(rec));
  }
}

void Executor::Commit(Inflight* t) {
  Node* origin_node = node(t->origin);
  // The commit timestamp must order after every commit this transaction
  // serialized behind at any node it touched: pull all touched clocks
  // forward into the origin's before ticking. Otherwise two writers of
  // one object, serialized by its master's lock, could carry timestamps
  // in the opposite order and newer-wins slave refreshes would converge
  // to a value different from the master's (lost slave update).
  for (NodeId nid : t->touched_nodes) {
    origin_node->clock().Observe(node(nid)->clock().Peek());
  }
  Timestamp commit_ts = origin_node->clock().Tick();
  t->result.commit_ts = commit_ts;
  // Install buffered writes everywhere they were produced.
  for (const WriteEntry& e : t->buffer) {
    Node* n = node(e.node);
    n->clock().Observe(commit_ts);
    Status s = n->store().Put(e.oid, e.value, commit_ts);
    assert(s.ok());
    (void)s;
  }
  // Stamp the pre-built update records with the real commit timestamp.
  if (t->opts.record_updates) BuildUpdateRecords(t, commit_ts);
  // WAL path: log every installed write at its node, then hold locks
  // (and the caller's `done`) until each touched log reports the
  // records durable. The buffer is (node, oid)-sorted, so node runs
  // are contiguous — one durability wait per written node.
  std::uint32_t waits = 0;
  if (durability_ != nullptr) {
    for (std::size_t i = 0; i < t->buffer.size(); ++i) {
      const WriteEntry& e = t->buffer[i];
      if (i == 0 || t->buffer[i - 1].node != e.node) ++waits;
      const Timestamp* observed = FindObserved(t, e.node, e.oid);
      durability_->LogWrite(
          e.node, t->id, e.oid,
          observed != nullptr ? *observed : Timestamp::Zero(), commit_ts,
          e.value);
    }
  }
  if (waits == 0) {
    // No durability to wait on: the pre-WAL commit tail, verbatim.
    ReleaseLocks(t);
    t->result.outcome = TxnOutcome::kCommitted;
    t->result.end_time = sim_->Now();
    m_committed_.Increment();
    if (trace_ != nullptr) {
      Emit(TraceEventType::kTxnCommit, t, t->origin, 0,
           StrPrintf("ts=%s", commit_ts.ToString().c_str()));
    }
    Finish(t);
    return;
  }
  // The transaction is committed the instant its writes are installed;
  // durability only gates completion (and thus lock release).
  t->result.outcome = TxnOutcome::kCommitted;
  m_committed_.Increment();
  if (trace_ != nullptr) {
    Emit(TraceEventType::kTxnCommit, t, t->origin, 0,
         StrPrintf("ts=%s", commit_ts.ToString().c_str()));
  }
  t->pending_durability = waits;
  const TxnId id = t->id;
  for (std::size_t i = 0; i < t->buffer.size();) {
    const NodeId nid = t->buffer[i].node;
    while (i < t->buffer.size() && t->buffer[i].node == nid) ++i;
    durability_->RequestCommitDurability(
        nid, [this, t, id]() { OnDurable(t, id); });
  }
}

void Executor::CompleteCommit(Inflight* t) {
  ReleaseLocks(t);
  t->result.end_time = sim_->Now();
  Finish(t);
}

void Executor::OnDurable(Inflight* t, TxnId id) {
  // Ids are never reused, so a recycled slot cannot be mistaken for the
  // transaction that parked here (mirrors the step continuations).
  if (t->id != id) return;
  assert(t->pending_durability > 0);
  if (--t->pending_durability > 0) return;
  CompleteCommit(t);
}

void Executor::ReleaseLocks(Inflight* t) {
  // Node by node in ascending id, each node's locks in grant order. A
  // release may grant a waiter, which schedules its next step, so event
  // order and every digest depend on this order. A grant callback fired
  // here appends to its own transaction's list, never to t's.
  for (NodeId nid : t->touched_nodes) {
    LockManager& locks = node(nid)->locks();
    for (const HeldLock& h : t->held) {
      if (h.node == nid) locks.Release(t->id, h.oid);
    }
  }
}

void Executor::Abort(Inflight* t, TxnOutcome outcome) {
  assert(outcome != TxnOutcome::kCommitted);
  ReleaseLocks(t);
  t->result.outcome = outcome;
  t->result.end_time = sim_->Now();
  if (outcome == TxnOutcome::kRejected) m_rejected_.Increment();
  if (trace_ != nullptr) {
    Emit(TraceEventType::kTxnAbort, t, t->origin, 0,
         std::string(TxnOutcomeToString(outcome)));
  }
  Finish(t);
}

void Executor::Finish(Inflight* t) {
  --active_;
  // The observer and done callback commonly start new transactions
  // (retry loops, lazy propagation); the record is recycled only after
  // both return, so `t->result` stays valid throughout and any
  // transaction they start draws a different pool slot.
  if (t->opts.observer != nullptr) t->opts.observer->OnTxnDone(t->result);
  if (t->done) {
    DoneCallback done = std::move(t->done);
    done(t->result);
  }
  RecycleInflight(t);
}

void LocalPlanInto(NodeId node, const Program& program,
                   std::vector<ExecStep>* out) {
  for (const Op& op : program.ops()) {
    out->push_back(ExecStep{node, op});
  }
}

}  // namespace tdr
