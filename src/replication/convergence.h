#ifndef TDR_REPLICATION_CONVERGENCE_H_
#define TDR_REPLICATION_CONVERGENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/object_store.h"
#include "storage/timestamp.h"
#include "storage/types.h"

namespace tdr {

/// §6: Non-transactional replication. "One strategy is to abandon
/// serializability for the convergence property: if no new transactions
/// arrive, and if all the nodes are connected together, they will all
/// converge to the same replicated state ... but updates may be lost."
///
/// Two propagation styles are implemented, matching the systems the
/// paper surveys:
///
///  * STATE-BASED pairwise exchange (Lotus Notes timestamped replace,
///    Microsoft Access "Wingman" version vectors): replicas compare
///    per-record state and the winner per some rule overwrites the
///    loser. Convergent, but replace/replace races LOSE UPDATES.
///  * OPERATION-BASED gossip (Lotus Notes append, §6's "commutative
///    updates ... applied in any order"): replicas ship their update
///    logs; every operation is eventually applied everywhere exactly
///    once. Convergent AND lossless for commutative ops.

// ---------------------------------------------------------------------------
// Reconciliation rules (Oracle 7-style, §6)
// ---------------------------------------------------------------------------

/// Decides which of two CONCURRENT record versions wins a pairwise
/// exchange. "Oracle 7 provides a choice of twelve reconciliation rules
/// ... give priority to certain sites, or time priority, or value
/// priority ... users can program their own."
struct ConflictContext {
  ObjectId oid = 0;
  NodeId node_a = 0;
  NodeId node_b = 0;
  const StoredObject* a = nullptr;
  const StoredObject* b = nullptr;
};

/// Returns the winning record value for a conflict. The version vectors
/// of both inputs are merged onto the winner by the caller so the
/// decision propagates.
using ReconciliationRule = std::function<StoredObject(const ConflictContext&)>;

/// Later timestamp wins (Notes' timestamped replace — the lost-update
/// rule). Oracle name: "latest timestamp".
ReconciliationRule TimePriorityRule();

/// Earlier timestamp wins (first writer sticks).
ReconciliationRule EarliestTimestampRule();

/// Lower site id wins regardless of time.
ReconciliationRule SitePriorityRule();

/// Explicit site ranking: the version from the highest-ranked (lowest
/// rank number) site wins; unranked sites lose to ranked ones; ties
/// fall back to the later timestamp.
ReconciliationRule PriorityGroupRule(std::map<NodeId, int> rank);

/// Larger scalar value wins. Oracle name: "maximum".
ReconciliationRule ValuePriorityRule();

/// Smaller scalar value wins. Oracle name: "minimum".
ReconciliationRule MinimumValueRule();

/// Mean of the two concurrent scalar values (rounds toward a's side).
ReconciliationRule AverageValueRule();

/// Keep the local (a) version — "discard" the incoming one.
ReconciliationRule DiscardRule();

/// Take the remote (b) version — "overwrite" the local one.
ReconciliationRule OverwriteRule();

/// Union of list values / sum of scalars — set-merge semantics.
ReconciliationRule ListMergeRule();

/// Additive merge: treats both concurrent versions as increments over a
/// common base and sums their effects — the rule that "makes some
/// transactions commutative". Requires scalar values; the common base is
/// approximated as 0 for version-1 records and is exact when each
/// replica's vv records one new local update over the common ancestor
/// value carried in ConflictContext (see GossipReplica::Exchange).
ReconciliationRule AdditiveMergeRule();

/// Looks up one of the twelve built-in rules by its catalogue name —
/// "Oracle 7 provides a choice of twelve reconciliation rules to merge
/// conflicting updates" (§6). Names: "additive", "average", "discard",
/// "earliest-timestamp", "latest-timestamp", "list-merge", "maximum",
/// "minimum", "overwrite", "priority-group" (ranking by ascending node
/// id), "site-priority", "user-function" (a template rejecting nothing,
/// meant to be replaced — "users can program their own reconciliation
/// rules"). Returns null for unknown names.
ReconciliationRule RuleByName(std::string_view name);

/// The twelve catalogue names, sorted.
std::vector<std::string> RuleCatalogue();

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// One replica participating in §6-style convergence replication.
class GossipReplica {
 public:
  /// One logged local operation, for operation-based gossip.
  struct LoggedOp {
    enum class Kind { kDelta, kAppend } kind = Kind::kDelta;
    ObjectId oid = 0;
    std::int64_t arg = 0;     // delta or appended item
    Timestamp ts;             // unique per op
    NodeId origin = 0;
    std::uint64_t seq = 0;    // per-origin sequence number (1-based)
  };

  GossipReplica(NodeId id, std::uint64_t db_size);

  NodeId id() const { return id_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  /// The version vector of this replica's copy of `oid` (§6 Access).
  const VersionVector& vv(ObjectId oid) const { return vv_[oid]; }

  // --- State-based local updates (timestamped replace / RMW) ---

  /// Local timestamped replace ("change account from $200 to $150"):
  /// installs `value` with a fresh timestamp and bumps this replica's
  /// version-vector slot. Races with other replicas' replaces.
  void LocalReplace(ObjectId oid, const Value& value);

  /// Read-modify-write convenience: replace with current + delta. This
  /// is the checkbook update *expressed as a replace* — the encoding
  /// that loses updates under timestamp schemes.
  void LocalReplaceAdd(ObjectId oid, std::int64_t delta);

  // --- Operation-based local updates (commutative) ---

  /// Local commutative increment, logged for gossip.
  void LocalDelta(ObjectId oid, std::int64_t delta);

  /// Local timestamped append, logged for gossip (§6 Notes append).
  void LocalAppend(ObjectId oid, std::int64_t item);

  // --- Exchange protocols ---

  /// State-based pairwise exchange with `other` ("version vectors are
  /// exchanged on demand or periodically; the most recent update wins
  /// each pairwise exchange", §6 Access). Dominating versions copy over
  /// dominated ones; concurrent versions invoke `rule` and count a
  /// conflict. Both replicas converge per record.
  /// Returns the number of conflicts reconciled.
  std::uint64_t ExchangeState(GossipReplica* other,
                              const ReconciliationRule& rule);

  /// Operation-based exchange: pulls every logged op from `other` that
  /// this replica has not yet seen (tracked by per-origin sequence
  /// numbers), applies them, and vice versa. Commutative ops make the
  /// application order irrelevant. Returns ops transferred.
  std::uint64_t ExchangeOps(GossipReplica* other);

  const std::vector<LoggedOp>& op_log() const { return op_log_; }
  std::uint64_t conflicts_seen() const { return conflicts_; }

 private:
  void ApplyForeignOp(const LoggedOp& op);
  Timestamp NextTs();

  NodeId id_;
  ObjectStore store_;
  // One version vector per object, beside the store: only this
  // state-based exchange reads them, so the store's slots stay small.
  std::vector<VersionVector> vv_;
  LamportClock clock_;
  // Operation-based state: full op log (own + received), delivery
  // watermark per origin.
  std::vector<LoggedOp> op_log_;
  std::map<NodeId, std::uint64_t> delivered_seq_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t conflicts_ = 0;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A set of replicas plus all-pairs exchange helpers — the test/bench
/// harness for the §6 experiments (E11).
class GossipCluster {
 public:
  GossipCluster(std::uint32_t replicas, std::uint64_t db_size);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(replicas_.size());
  }
  GossipReplica& replica(NodeId id) { return *replicas_[id]; }

  /// Runs state-based exchanges over all pairs repeatedly until no
  /// record changes (guaranteed to terminate: records only move "up" in
  /// the version-vector order). Returns total conflicts reconciled.
  std::uint64_t ConvergeState(const ReconciliationRule& rule);

  /// Runs op-based exchanges over all pairs until quiescent. Returns
  /// total ops transferred.
  std::uint64_t ConvergeOps();

  /// All replicas hold identical values.
  bool Converged() const;

 private:
  std::vector<std::unique_ptr<GossipReplica>> replicas_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_CONVERGENCE_H_
