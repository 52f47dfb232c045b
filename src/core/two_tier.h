#ifndef TDR_CORE_TWO_TIER_H_
#define TDR_CORE_TWO_TIER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/acceptance.h"
#include "replication/cluster.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "storage/tentative_store.h"
#include "util/result.h"

namespace tdr {

class TwoTierSystem;

/// Outcome of reprocessing one tentative transaction at the base —
/// delivered to the mobile node's FinalCallback ("the originating node
/// and person who generated the transaction are informed it failed and
/// why it failed", §7).
struct FinalOutcome {
  bool accepted = false;
  std::string reason;          // rejection diagnostic
  TxnResult base_result;       // the base execution
};

/// A mobile node in the two-tier scheme (§7): usually disconnected,
/// holds a full replica (its best-known MASTER versions, refreshed by
/// ordinary lazy-master slave updates whenever connected) plus a
/// TENTATIVE overlay written by tentative transactions. Owned by
/// TwoTierSystem; user code reaches it for reads and stats.
class MobileNode {
 public:
  NodeId id() const { return node_->id(); }
  bool connected() const { return node_->connected(); }

  /// Reads through the tentative overlay: "If the mobile node queries
  /// this data it sees the tentative values" (§7).
  Result<StoredObject> Read(ObjectId oid) const {
    return tentative_.Read(oid);
  }

  /// True if `oid` currently has a tentative (not yet base-confirmed)
  /// version.
  bool HasTentative(ObjectId oid) const {
    return tentative_.HasTentative(oid);
  }

  /// Tentative transactions awaiting reprocessing at the base.
  std::size_t PendingCount() const { return pending_.size(); }

 private:
  friend class TwoTierSystem;

  struct PendingTxn {
    std::uint64_t seq = 0;
    Program program;
    AcceptanceCriterion acceptance;
    TxnResult tentative_result;
    std::function<void(const TxnResult&)> on_tentative_cb;
    std::function<void(const FinalOutcome&)> on_final;
  };

  MobileNode(TwoTierSystem* sys, Node* node)
      : sys_(sys), node_(node), tentative_(&node->store()) {}

  TwoTierSystem* sys_;
  Node* node_;
  TentativeStore tentative_;
  std::deque<PendingTxn> pending_;  // commit order
  // Tentative executions are serialized per mobile node (one user).
  std::deque<PendingTxn> to_execute_;
  bool executing_ = false;
  bool draining_ = false;
  std::uint64_t next_seq_ = 1;
};

/// The paper's contribution: two-tier replication (§7).
///
///   * Base nodes [0, num_base) are always connected and master most
///     objects; among themselves they run ordinary lazy-master
///     replication.
///   * Mobile nodes [num_base, num_base+num_mobile) are usually
///     disconnected. They originate TENTATIVE transactions against
///     their local tentative versions; on reconnect, each tentative
///     transaction is re-executed as a BASE transaction against master
///     copies in commit order, subject to its acceptance criterion.
///     Deadlocked base transactions are resubmitted until they succeed;
///     rejected ones are reported back to the mobile node with a
///     diagnostic.
///
/// Key properties (§7, all covered by tests):
///   1. mobile nodes may update while disconnected;
///   2. base transactions execute with single-copy serializability;
///   3. a transaction is durable when its base transaction completes;
///   4. replicas at connected nodes converge to the base state;
///   5. if all transactions commute there are no reconciliations.
class TwoTierSystem {
 public:
  struct Options {
    std::uint32_t num_base = 2;
    std::uint32_t num_mobile = 2;
    std::uint64_t db_size = 1000;
    SimTime action_time = SimTime::Millis(10);
    std::uint64_t seed = 42;
  };

  /// Base transactions are retried on deadlock up to this many times,
  /// each after this backoff.
  static constexpr int kMaxBaseRetries = 1000;
  static constexpr SimTime kBaseRetryBackoff = SimTime::Millis(10);

  explicit TwoTierSystem(Options options);

  TwoTierSystem(const TwoTierSystem&) = delete;
  TwoTierSystem& operator=(const TwoTierSystem&) = delete;

  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  sim::Simulator& sim() { return cluster_.sim(); }
  Ownership& ownership() { return ownership_; }
  const Ownership& ownership() const { return ownership_; }
  LazyMasterScheme& lazy_master() { return lazy_master_; }

  std::uint32_t num_base() const { return options_.num_base; }
  std::uint32_t num_mobile() const { return options_.num_mobile; }
  bool IsBase(NodeId id) const { return id < options_.num_base; }
  bool IsMobile(NodeId id) const {
    return id >= options_.num_base &&
           id < options_.num_base + options_.num_mobile;
  }
  /// The base node that hosts a mobile node's reconnect exchanges.
  NodeId HostOf(NodeId mobile) const {
    return static_cast<NodeId>((mobile - options_.num_base) %
                               options_.num_base);
  }

  MobileNode& mobile(NodeId id) { return *mobiles_.at(id); }
  const MobileNode& mobile(NodeId id) const { return *mobiles_.at(id); }

  /// Ids of all mobile nodes, ascending.
  std::vector<NodeId> MobileIds() const {
    std::vector<NodeId> ids;
    ids.reserve(mobiles_.size());
    for (const auto& [id, m] : mobiles_) ids.push_back(id);
    return ids;
  }

  /// Re-masters an object at a mobile node ("A mobile node may be the
  /// master of some data items", §7). Call before running transactions.
  void SetMobileMaster(ObjectId oid, NodeId mobile_id);

  using TentativeCallback = std::function<void(const TxnResult&)>;
  using FinalCallback = std::function<void(const FinalOutcome&)>;

  /// Submits a tentative transaction at a mobile node. Enforces the §7
  /// SCOPE RULE: the program may touch only objects mastered at base
  /// nodes or at this mobile node. `on_tentative` fires when the local
  /// tentative execution commits (immediately visible to local reads);
  /// `on_final` fires after base reprocessing, possibly much later.
  /// Either callback may be null.
  Status SubmitTentative(NodeId mobile_id, Program program,
                         AcceptanceCriterion acceptance,
                         TentativeCallback on_tentative,
                         FinalCallback on_final);

  /// Ordinary connected-operation transaction from a base node: plain
  /// lazy-master execution ("a two-tier system operates much like a
  /// lazy-master system", §7).
  void SubmitBase(NodeId base_origin, const Program& program,
                  Executor::DoneCallback done);

  /// §7 local transactions: "Local transactions that read and write only
  /// local data can be designed in any way you like. They cannot read or
  /// write any tentative data." The program may touch only objects
  /// MASTERED AT THIS MOBILE NODE; it commits immediately against the
  /// mobile's master copies (the mobile IS the master), is durable at
  /// once, and its replica updates propagate to the rest of the network
  /// lazily — queued while disconnected, flushed at reconnect.
  /// Fails kInvalidArgument on scope violation, kFailedPrecondition if
  /// the program would read tentative data.
  Status SubmitLocal(NodeId mobile_id, const Program& program,
                     Executor::DoneCallback done);

  /// Connectivity control for mobile nodes (wraps Network::SetConnected;
  /// reconnect triggers the §7 exchange protocol).
  void Connect(NodeId mobile_id);
  void Disconnect(NodeId mobile_id);

  // Aggregate statistics.
  std::uint64_t tentative_submitted() const {
    return cluster_.metrics().Get("twotier.tentative_submitted");
  }
  std::uint64_t base_committed() const {
    return cluster_.metrics().Get("twotier.base_committed");
  }
  std::uint64_t base_rejected() const {
    return cluster_.metrics().Get("twotier.base_rejected");
  }
  std::uint64_t base_deadlock_retries() const {
    return base_deadlock_retries_;
  }

  /// True if every base node's replica matches base node 0 by value —
  /// property 4 restricted to the always-connected tier.
  bool BaseTierConverged() const;

 private:
  void ExecuteNextTentative(MobileNode* m);
  void MaybeDrain(MobileNode* m);
  void ReprocessFront(MobileNode* m, int attempts);
  void DeliverFinal(MobileNode* m, MobileNode::PendingTxn item,
                    FinalOutcome outcome);

  Options options_;
  Cluster cluster_;
  Ownership ownership_;
  LazyMasterScheme lazy_master_;
  std::map<NodeId, std::unique_ptr<MobileNode>> mobiles_;
  std::uint64_t base_deadlock_retries_ = 0;
};

}  // namespace tdr

#endif  // TDR_CORE_TWO_TIER_H_
