#include "wal/recovery_manager.h"

#include <cassert>
#include <utility>

namespace tdr::wal {

RecoveryManager::RecoveryManager(std::vector<Node*> nodes, Network* net,
                                 WalSet* wals)
    : nodes_(std::move(nodes)),
      net_(net),
      wals_(wals),
      recovery_(wals != nullptr ? wals->backend() : nullptr),
      wipe_epoch_(nodes_.size(), 0) {}

void RecoveryManager::Crash(NodeId node) {
  if (wals_ == nullptr) {
    net_->Crash(node);
    return;
  }
  Node* n = nodes_[node];
  // Order matters: disconnect first (scheme hooks observe a dead node),
  // then void parked commits (they release locks and finish — no leaks),
  // then lose the volatile state.
  net_->Crash(node);
  net_->DiscardOutbox(node);
  wals_->Crash(node);
  n->store().ResetToZero();
  ++wipe_epoch_[node];
}

void RecoveryManager::Restart(NodeId node) {
  if (wals_ == nullptr) {
    net_->Restart(node);
    return;
  }
  Node* n = nodes_[node];
  // Transactions in flight at the crash kept stepping (the executor has
  // no crash hook) and their void-completed commits may have installed
  // into the doomed store or parked ships in the outbox. None of that
  // survived the crash in this model: discard it all and rebuild from
  // the durable prefix alone.
  net_->DiscardOutbox(node);
  n->store().ResetToZero();
  WalMetrics& m = wals_->wal_metrics();
  const RecoveryResult result =
      recovery_.Recover(node, [n](const WalRecord& rec) {
        n->store().Put(rec.oid, rec.value, rec.new_ts);
        n->clock().Observe(rec.new_ts);
      });
  wals_->ResetWriter(node, result.next_lsn, result.next_segment);
  ++recoveries_;
  m.recovery_replayed.Increment(result.records_replayed);
  m.recovery_segments.Increment(result.segments_read);
  if (result.torn_tail) {
    m.torn_tail_truncations.Increment();
    m.torn_tail_bytes.Increment(result.bytes_truncated);
  }
  // Reconnect (flushes parked peer traffic, fires the schemes' catch-up
  // hooks), then close the gap the log could not cover: anything
  // committed while this node was down, or lost with the torn tail.
  net_->Restart(node);
  PeerCatchUp(n);
}

void RecoveryManager::PeerCatchUp(Node* node) {
  WalMetrics& m = wals_->wal_metrics();
  const std::uint64_t db = node->store().size();
  for (ObjectId oid = 0; oid < db; ++oid) {
    const Node* best = nullptr;
    for (Node* peer : nodes_) {
      if (peer == node || peer->crashed()) continue;
      if (!net_->Reachable(node->id(), peer->id())) continue;
      const Timestamp ts = peer->store().GetUnchecked(oid).ts();
      if (best == nullptr || ts > best->store().GetUnchecked(oid).ts()) {
        best = peer;
      }
    }
    if (best == nullptr) continue;
    const StoredObject& theirs = best->store().GetUnchecked(oid);
    const StoredObject& mine = node->store().GetUnchecked(oid);
    if (theirs.ts() <= mine.ts()) continue;
    // Adopt and log: repaired state must survive the NEXT crash too.
    const Value value = theirs.value();
    const Timestamp ts = theirs.ts();
    wals_->LogWrite(node->id(), kInvalidTxnId, oid, mine.ts(), ts, value);
    node->store().Put(oid, value, ts);
    node->clock().Observe(ts);
    m.catch_up_adopted.Increment();
  }
  for (Node* peer : nodes_) {
    if (peer == node || peer->crashed()) continue;
    node->clock().Observe(peer->clock().Peek());
  }
}

}  // namespace tdr::wal
