#ifndef TDR_REPLICATION_LAZY_GROUP_H_
#define TDR_REPLICATION_LAZY_GROUP_H_

#include "net/update_batch.h"
#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "replication/replica_applier.h"
#include "replication/scheme.h"

namespace tdr {

/// Lazy GROUP replication (§4, Figure 4): "any node to update any local
/// data. When the transaction commits, a transaction is sent to every
/// other node to apply the root transaction's updates."
///
/// The root transaction runs locally at the origin under ordinary
/// locking. At commit, one replica-update transaction per remote node
/// carries (OID, old timestamp, new value) tuples; each destination
/// applies the timestamp-match test and counts a RECONCILIATION when it
/// fails — the instability the paper quantifies in Eq. (14)/(18).
///
/// Disconnected origins simply queue their replica updates in the
/// network outbox ("the node accepts and applies transactions for a
/// day; then at night it connects and downloads them"), so the mobile
/// analysis of Eqs. (15)-(18) falls out of the same code path.
///
/// Replica updates ship through a BatchShipper: by default one message
/// per commit per remote node; with a batch window the stream is a
/// self-inflicted Disconnect_Time, which Eq. (18) prices directly (see
/// the batching sweep in bench_mobile_disconnect).
class LazyGroupScheme : public ReplicationScheme, private TxnObserver {
 public:
  struct Options {
    /// Shipping plane. The default (zero window, no cap) ships each
    /// commit at once; a window or cap parks updates on per-destination
    /// streams, applied atomically per shard at the destination.
    BatchShipper::Options batch{SimTime::Zero(), 0, true};
  };

  explicit LazyGroupScheme(Cluster* cluster)
      : LazyGroupScheme(cluster, Options()) {}
  LazyGroupScheme(Cluster* cluster, Options options);

  std::string_view name() const override { return "lazy-group"; }
  bool eager() const override { return false; }
  bool group_ownership() const override { return true; }
  std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const override {
    return nodes;  // root + (N-1) replica-update transactions (Table 1)
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

  /// Ships every pending batch now (end-of-run convenience; a no-op
  /// with per-commit shipping).
  void FlushAllBatches() { shipper_.FlushAll(); }

  /// The shipping plane every replica update goes through.
  BatchShipper* batch_shipper() { return &shipper_; }

  /// Traces replica-update application (forwarded to the applier).
  void set_trace_sink(TraceSink* sink) { applier_.set_trace_sink(sink); }

  /// Reconciliations detected so far (timestamp-match failures across
  /// all replicas).
  std::uint64_t reconciliations() const {
    return cluster_->metrics().Get("lazy_group.reconciliations");
  }

 private:
  /// Executor completion hook (set as RunOptions::observer on every
  /// root transaction): propagates committed updates. Runs before the
  /// caller's done callback, exactly where the old done-wrapper ran.
  void OnTxnDone(const TxnResult& result) override;
  void Propagate(const TxnResult& result);
  void ApplyAt(Node* dest, const std::vector<UpdateRecord>& records);

  Cluster* cluster_;
  ReplicaApplier applier_;
  BatchShipper shipper_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_LAZY_GROUP_H_
