#ifndef TDR_FAULT_INVARIANT_CHECKER_H_
#define TDR_FAULT_INVARIANT_CHECKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "replication/cluster.h"
#include "replication/ownership.h"
#include "replication/quorum.h"
#include "replication/scheme_factory.h"
#include "sim/simulator.h"
#include "storage/timestamp.h"

namespace tdr {
class TwoTierSystem;
}  // namespace tdr

namespace tdr::fault {

/// A second name for SchemeKind, the scheme whose guarantees the
/// checker enforces. Only perfbench/ still spells it this way.
using SchemeClass = SchemeKind;

/// One detected invariant violation, with the simulated time it was
/// observed and (when a fault trace provider is wired) the fault
/// history that led up to it.
struct Violation {
  std::string invariant;
  std::string detail;
  SimTime at;
  std::string fault_trace;

  std::string ToString() const;
};

/// Always-on machine checker for the paper's per-scheme guarantees.
///
/// Checks (applicability per scheme in parentheses):
///  * monotone-timestamps (all): a replica's timestamp for an object
///    never moves backwards — newer-wins, timestamp-match, quorum-apply
///    and catch-up must all preserve this.
///  * timestamp-value-agreement (all): two replicas holding the same
///    (object, timestamp) hold the same value — a commit timestamp
///    uniquely identifies one write.
///  * master-dominance (master schemes): the owner's copy of an object
///    carries the newest timestamp anywhere in the cluster — a slave
///    can lag the master but never lead it ("only the master can update
///    the primary copy").
///  * quorum-intersection (quorum): replicas holding the newest version
///    of an object muster at least write_quorum votes, so any future
///    write/read quorum intersects the latest committed write. Under
///    the WAL the sweep waits while any node is down (its store is
///    wiped until replay); a durable store still counts when crashed.
///  * convergence (final; all but lazy-group): once every fault heals
///    and queues drain, all replicas hold identical values. For
///    lazy-group the divergent slot count is recorded as the DETECTED
///    delusion instead ("the database will be inconsistent and the
///    inconsistency will not be detected otherwise").
///  * two-tier-ledger (two-tier, final): no lost base updates —
///    every tentative transaction was reprocessed at the base and
///    either committed or rejected-with-reason, none silently dropped.
///
/// If any violation is never acknowledged via TakeViolations() before
/// destruction, the checker aborts the process (the CI gate: a run that
/// ends with unchecked violations fails the build).
class InvariantChecker {
 public:
  struct Options {
    /// The invariant set per kind follows the paper's claims: eager
    /// schemes and lazy-master must converge; lazy-group is EXPECTED to
    /// diverge under faults (system delusion), so its divergence is
    /// recorded, not flagged. The eager-group ablations check as eager
    /// group.
    SchemeKind scheme = SchemeKind::kEagerGroup;
    /// Master map, required for master-dominance (eager-master,
    /// lazy-master, two-tier).
    const Ownership* ownership = nullptr;
    /// Vote configuration, required for quorum-intersection.
    const QuorumEagerScheme* quorum = nullptr;
    /// Two-tier bookkeeping, required for the ledger check.
    const TwoTierSystem* two_tier = nullptr;
    /// If positive, CheckNow() runs on this period while armed.
    SimTime check_interval = SimTime::Zero();
    /// Fault history provider (e.g. FaultInjector::AppliedLogString),
    /// captured into each violation.
    std::function<std::string()> trace_fn;
  };

  /// At most this many violations keep full detail (all are counted).
  static constexpr std::size_t kMaxRecorded = 100;

  InvariantChecker(Cluster* cluster, Options options);
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Starts the periodic sweep (no-op if check_interval is zero).
  void Arm();

  /// Stops the periodic sweep. Call before draining the simulator to
  /// completion — the sweep series would otherwise run forever.
  void Disarm();

  /// Runs every steady-state check against current cluster state.
  void CheckNow();

  /// End-of-run check: everything in CheckNow() plus convergence (or
  /// delusion recording) and the two-tier ledger.
  void CheckFinal();

  /// Violations reported so far, recorded or not (the cluster's
  /// `invariant.violations` count, so the cluster must outlive the
  /// checker).
  std::uint64_t violations_total() const {
    return cluster_->metrics().Get("invariant.violations");
  }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Acknowledges and returns all recorded violations; afterwards the
  /// destructor will not abort (until new violations appear).
  std::vector<Violation> TakeViolations();

  /// Divergent (node, object) slots observed by the last CheckFinal()
  /// under lazy-group — the *detected* system delusion.
  std::uint64_t delusion_slots() const { return delusion_slots_; }

 private:
  bool UsesOwnership() const {
    return options_.scheme == SchemeKind::kEagerMaster ||
           options_.scheme == SchemeKind::kLazyMaster ||
           options_.scheme == SchemeKind::kTwoTier;
  }
  void CheckMonotoneTimestamps();
  void CheckTimestampValueAgreement();
  void CheckMasterDominance();
  void CheckQuorumIntersection();
  void CheckConvergence();
  void CheckTwoTierLedger();
  void Report(const char* invariant, std::string detail);

  Cluster* cluster_;
  Options options_;
  sim::EventId sweep_series_ = sim::kInvalidEventId;
  // Last observed timestamp per (node, object), for monotonicity.
  std::vector<std::vector<Timestamp>> last_ts_;
  // RecoveryManager wipe epoch at the last sweep: when it moves, the
  // node's store was legitimately wiped by a WAL-mode crash and its
  // monotonicity watermarks reset (recovery replays an old prefix).
  std::vector<std::uint64_t> wipe_epoch_seen_;
  std::vector<Violation> violations_;
  std::uint64_t delusion_slots_ = 0;
};

}  // namespace tdr::fault

#endif  // TDR_FAULT_INVARIANT_CHECKER_H_
