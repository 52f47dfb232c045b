#ifndef TDR_WAL_RECOVERY_MANAGER_H_
#define TDR_WAL_RECOVERY_MANAGER_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "txn/node.h"
#include "wal/wal_recovery.h"
#include "wal/wal_set.h"

namespace tdr::wal {

/// The single seam every crash and restart goes through — what the
/// FaultInjector calls instead of touching Network directly — so the
/// durability mode selects the recovery story per run:
///
///   - DurabilityMode::kOff (wals == nullptr): pure pass-through to
///     Network::Crash/Restart. The legacy model: stores survive
///     crashes, outboxes act as a durable update log. Existing suites
///     (quorum chaos, message-pool lifetimes) are bit-identical.
///
///   - WAL modes: a crash loses everything volatile — the store is
///     wiped, the outbox and outbound update log discarded, parked
///     commit waiters void-fired, the WAL's unsynced tail torn at a
///     seeded random byte. Restart rebuilds the store by replaying the
///     WAL's durable prefix (re-observing every replayed timestamp into
///     the node's Lamport clock), re-arms the writer past it, reconnects
///     (which fires the schemes' reconnect catch-up hooks), then adopts
///     newer values object-by-object from reachable live peers, logging
///     each adoption so the repaired state is itself durable.
///
/// The Lamport clock is deliberately NOT reset at a crash: the model
/// treats the counter as recovered from the WAL high-water mark plus
/// the catch-up observations, which keeps every timestamp issued after
/// restart unique without reasoning about pre-crash messages still in
/// flight.
class RecoveryManager {
 public:
  RecoveryManager(std::vector<Node*> nodes, Network* net, WalSet* wals);

  void Crash(NodeId node);
  void Restart(NodeId node);

  /// Bumped every time `node`'s store is wiped by a crash. Observers
  /// holding per-node watermarks (the invariant checker's monotone-
  /// timestamp sweep) reset them when the epoch moves.
  std::uint64_t wipe_epoch(NodeId node) const { return wipe_epoch_[node]; }

  bool wal_enabled() const { return wals_ != nullptr; }

  /// WAL records replayed by every recovery so far (0 with the WAL off).
  std::uint64_t records_replayed() const {
    return wals_ != nullptr ? wals_->wal_metrics().recovery_replayed.value()
                            : 0;
  }
  std::uint64_t recoveries() const { return recoveries_; }

 private:
  void PeerCatchUp(Node* node);

  std::vector<Node*> nodes_;
  Network* net_;
  WalSet* wals_;  // null = kOff pass-through
  WalRecovery recovery_;
  std::vector<std::uint64_t> wipe_epoch_;
  std::uint64_t recoveries_ = 0;
};

}  // namespace tdr::wal

#endif  // TDR_WAL_RECOVERY_MANAGER_H_
