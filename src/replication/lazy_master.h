#ifndef TDR_REPLICATION_LAZY_MASTER_H_
#define TDR_REPLICATION_LAZY_MASTER_H_

#include <vector>

#include "net/update_batch.h"
#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "replication/ownership.h"
#include "replication/replica_applier.h"
#include "replication/scheme.h"

namespace tdr {

/// Lazy MASTER replication (§5): "Updates are first done by the owner
/// and then propagated to other replicas." The master transaction locks
/// and updates only master copies (at the owners); after commit, each
/// owner broadcasts timestamped slave updates, and slaves apply the
/// newer-wins test, ignoring stale updates so "all the replicas
/// converge to the same final state".
///
/// There are no reconciliations — conflicts resolve as waits/deadlocks
/// at the masters, at the Eq. (19) rate. The scheme is unusable by
/// disconnected nodes: Submit returns kUnavailable if any written
/// object's master is unreachable ("A node wanting to update an object
/// must be connected to the object owner").
class LazyMasterScheme : public ReplicationScheme, private TxnObserver {
 public:
  struct Options {
    /// If true, a node catches up from the masters when it reconnects or
    /// a cut link to it heals (anti-entropy): any slave refresh lost to
    /// a crash or dropped message is repaired from the master copy.
    /// Off by default — the paper's base protocol relies purely on the
    /// refresh stream, and the two-tier core manages its own catch-up.
    bool reconnect_catch_up = false;
    /// Shipping plane. The default (zero window, no cap) ships each
    /// master's refreshes at once, one message per commit per other
    /// node; a window or cap parks them on (master, dest) streams, and
    /// the destination applies a batch atomically per shard,
    /// newer-wins.
    BatchShipper::Options batch{SimTime::Zero(), 0, true};
  };

  LazyMasterScheme(Cluster* cluster, const Ownership* ownership)
      : LazyMasterScheme(cluster, ownership, Options()) {}
  LazyMasterScheme(Cluster* cluster, const Ownership* ownership,
                   Options options);

  std::string_view name() const override { return "lazy-master"; }
  bool eager() const override { return false; }
  bool group_ownership() const override { return false; }
  std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const override {
    return nodes;  // master txn + (N-1) slave refresh txns (Table 1)
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

  /// Submit with a precommit hook — the two-tier core runs base
  /// transactions through this, wiring the acceptance criterion in as
  /// the hook ("If the base transaction fails its acceptance criteria,
  /// the base transaction is aborted", §7).
  void SubmitWithPrecommit(NodeId origin, const Program& program,
                           Executor::PrecommitHook precommit,
                           DoneCallback done);

  /// Traces slave-refresh application (forwarded to the applier).
  void set_trace_sink(TraceSink* sink) { applier_.set_trace_sink(sink); }

  /// Refreshes `node`'s replica of every object from its (reachable)
  /// master copy, newer-wins. The repair path for refreshes lost to
  /// crashes or message drops.
  void CatchUpNode(NodeId node);

  /// Runs CatchUpNode at every connected node — the fault harness calls
  /// this after all partitions heal so convergence checks see the state
  /// the anti-entropy protocol would reach.
  void CatchUpAll();

  /// Ships every pending refresh batch now (a no-op with per-commit
  /// shipping); the measurement harness calls this before convergence
  /// checks.
  void FlushAllBatches() { shipper_.FlushAll(); }

  /// Ships a committed transaction's slave refreshes: each master's
  /// records go to every other node. The observer hook calls this for
  /// master transactions; the two-tier core calls it for local
  /// transactions committed at a mobile master.
  void Propagate(const TxnResult& result);

  /// The shipping plane every slave refresh goes through.
  BatchShipper* batch_shipper() { return &shipper_; }

  std::uint64_t catch_up_objects() const {
    return cluster_->metrics().Get("lazy_master.catch_up_objects");
  }

 private:
  /// Executor completion hook (RunOptions::observer on every master
  /// transaction): broadcasts slave refreshes on commit. Runs before
  /// the caller's done callback, exactly where the old done-wrapper ran.
  void OnTxnDone(const TxnResult& result) override;
  void ApplyAt(Node* dest, const std::vector<UpdateRecord>& records);

  Cluster* cluster_;
  const Ownership* ownership_;
  ReplicaApplier applier_;
  BatchShipper shipper_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_LAZY_MASTER_H_
