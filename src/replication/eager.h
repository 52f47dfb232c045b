#ifndef TDR_REPLICATION_EAGER_H_
#define TDR_REPLICATION_EAGER_H_

#include <vector>

#include "replication/cluster.h"
#include "replication/ownership.h"
#include "replication/scheme.h"

namespace tdr {

/// Eager GROUP replication (§3): "Updates are applied to all replicas of
/// an object as part of the original transaction" and any node may
/// update any object. Each write becomes Nodes sequential locked actions
/// (origin first), so transaction size is Actions x Nodes and duration
/// Actions x Nodes x Action_Time — exactly Eq. (6). There are no
/// reconciliations; conflicts surface as waits and deadlocks.
///
/// "Simple eager replication systems prohibit updates if any node is
/// disconnected": Submit fails kUnavailable unless every node is
/// reachable from the origin. Skipping offline replicas is the quorum
/// scheme's job (QuorumEagerScheme, §3's availability mechanism).
class EagerGroupScheme : public ReplicationScheme {
 public:
  struct Options {
    /// Footnote-2 ablation: replica updates broadcast in parallel, so
    /// only the first (origin) application of each action costs
    /// Action_Time. Transaction duration stays Actions x Action_Time
    /// regardless of N, and the deadlock growth drops from cubic to
    /// quadratic.
    bool parallel_replica_updates = false;
    /// "True serialization" ablation: reads take exclusive locks too.
    bool lock_reads = false;
    /// Timeout-based deadlock detection ablation (combine with the
    /// cluster's detect_deadlock_cycles=false); zero disables.
    SimTime wait_timeout = SimTime::Zero();
  };

  explicit EagerGroupScheme(Cluster* cluster)
      : EagerGroupScheme(cluster, Options()) {}
  EagerGroupScheme(Cluster* cluster, Options options)
      : cluster_(cluster), options_(options) {}

  std::string_view name() const override { return "eager-group"; }
  bool eager() const override { return true; }
  bool group_ownership() const override { return true; }
  std::uint64_t TransactionsPerUserUpdate(std::uint32_t) const override {
    return 1;  // "one transaction" (Table 1)
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

 private:
  Cluster* cluster_;
  Options options_;
};

/// Eager MASTER replication (§3 end / Table 1): every object has an
/// owner; updates lock the master copy first, then the replicas, still
/// inside the one user transaction. Ordering every writer of an object
/// through its master removes the group scheme's update races; the
/// deadlock analysis (Eq. 12) is otherwise identical, which the
/// benches confirm. Like the group scheme, Submit fails kUnavailable
/// unless every node (the masters included) is reachable.
class EagerMasterScheme : public ReplicationScheme {
 public:
  EagerMasterScheme(Cluster* cluster, const Ownership* ownership)
      : cluster_(cluster), ownership_(ownership) {}

  std::string_view name() const override { return "eager-master"; }
  bool eager() const override { return true; }
  bool group_ownership() const override { return false; }
  std::uint64_t TransactionsPerUserUpdate(std::uint32_t) const override {
    return 1;
  }

  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

 private:
  Cluster* cluster_;
  const Ownership* ownership_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_EAGER_H_
