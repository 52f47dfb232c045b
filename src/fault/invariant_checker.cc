#include "fault/invariant_checker.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/two_tier.h"
#include "util/logging.h"

namespace tdr::fault {

std::string Violation::ToString() const {
  std::string s = StrPrintf("[t=%.6fs] %s: %s", at.seconds(),
                            invariant.c_str(), detail.c_str());
  if (!fault_trace.empty()) {
    s += "\n  fault trace:\n    ";
    for (char c : fault_trace) {
      s += c;
      if (c == '\n') s += "    ";
    }
  }
  return s;
}

InvariantChecker::InvariantChecker(Cluster* cluster, Options options)
    : cluster_(cluster), options_(std::move(options)) {
  last_ts_.resize(cluster_->size());
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    last_ts_[id].assign(cluster_->options().db_size, 0);
  }
  wipe_epoch_seen_.assign(cluster_->size(), 0);
}

InvariantChecker::~InvariantChecker() {
  Disarm();
  if (!violations_.empty()) {
    std::fprintf(stderr,
                 "InvariantChecker[%s]: %llu UNCHECKED invariant "
                 "violation(s) at destruction:\n",
                 std::string(SchemeKindName(options_.scheme)).c_str(),
                 (unsigned long long)violations_total());
    for (const Violation& v : violations_) {
      std::fprintf(stderr, "%s\n", v.ToString().c_str());
    }
    std::abort();
  }
}

void InvariantChecker::Arm() {
  if (sweep_series_ != sim::kInvalidEventId) return;
  if (options_.check_interval <= SimTime::Zero()) return;
  sweep_series_ = cluster_->sim().RepeatEvery(options_.check_interval,
                                              [this]() { CheckNow(); });
}

void InvariantChecker::Disarm() {
  if (sweep_series_ == sim::kInvalidEventId) return;
  cluster_->sim().Cancel(sweep_series_);
  sweep_series_ = sim::kInvalidEventId;
}

void InvariantChecker::CheckNow() {
  CheckMonotoneTimestamps();
  CheckTimestampValueAgreement();
  if (UsesOwnership() && options_.ownership != nullptr) {
    CheckMasterDominance();
  }
  if (options_.scheme == SchemeKind::kQuorum && options_.quorum != nullptr) {
    CheckQuorumIntersection();
  }
  cluster_->metrics().Increment("invariant.sweeps");
}

void InvariantChecker::CheckFinal() {
  CheckNow();
  CheckConvergence();
  if (options_.scheme == SchemeKind::kTwoTier &&
      options_.two_tier != nullptr) {
    CheckTwoTierLedger();
  }
}

void InvariantChecker::CheckMonotoneTimestamps() {
  // Under DurabilityMode::kOff stores are durable across crashes (the
  // legacy model), so a crashed node's state stays visible and checked.
  const bool wal = cluster_->recovery().wal_enabled();
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    // A WAL-mode crash wipes the store; recovery replays an older
    // durable prefix. That rewind is legitimate exactly once per wipe:
    // reset the watermarks when the epoch moves, and skip nodes that
    // are down (their wiped state is not externally visible).
    const std::uint64_t epoch = cluster_->recovery().wipe_epoch(id);
    if (epoch != wipe_epoch_seen_[id]) {
      wipe_epoch_seen_[id] = epoch;
      last_ts_[id].assign(last_ts_[id].size(), 0);
    }
    if (wal && cluster_->node(id)->crashed()) continue;
    const ObjectStore& store = cluster_->node(id)->store();
    std::vector<std::uint64_t>& last = last_ts_[id];
    for (ObjectId oid = 0; oid < store.size(); ++oid) {
      const std::uint64_t ts = store.GetUnchecked(oid).packed_ts();
      if (ts < last[oid]) {
        Report("monotone-timestamps",
               StrPrintf("node %u object %llu went backwards: %s -> %s", id,
                         (unsigned long long)oid,
                         UnpackTimestamp(last[oid]).ToString().c_str(),
                         UnpackTimestamp(ts).ToString().c_str()));
      }
      last[oid] = ts;
    }
  }
}

void InvariantChecker::CheckTimestampValueAgreement() {
  // A commit timestamp identifies exactly one write (Lamport timestamps
  // are unique per writer), so two replicas at the same (oid, ts) must
  // agree on the value. Each replica is checked against the first live
  // node, in node order, holding the same (oid, ts).
  const bool wal = cluster_->recovery().wal_enabled();
  std::vector<std::pair<NodeId, const ObjectStore*>> live;
  live.reserve(cluster_->size());
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (wal && cluster_->node(id)->crashed()) continue;  // wiped
    live.emplace_back(id, &cluster_->node(id)->store());
  }
  const std::uint64_t db = cluster_->options().db_size;
  for (ObjectId oid = 0; oid < db; ++oid) {
    for (std::size_t i = 1; i < live.size(); ++i) {
      const StoredObject& obj = live[i].second->GetUnchecked(oid);
      for (std::size_t j = 0; j < i; ++j) {
        const StoredObject& first = live[j].second->GetUnchecked(oid);
        if (first.packed_ts() != obj.packed_ts()) continue;
        if (!first.SameValueAs(obj)) {
          Report("timestamp-value-agreement",
                 StrPrintf("object %llu at ts %s: node %u holds %s, node %u "
                           "holds %s",
                           (unsigned long long)oid,
                           obj.ts().ToString().c_str(), live[j].first,
                           first.value().ToString().c_str(), live[i].first,
                           obj.value().ToString().c_str()));
        }
        break;
      }
    }
  }
}

void InvariantChecker::CheckMasterDominance() {
  // "Only the master can update the primary copy": a replica can lag
  // its master but never lead it.
  const bool wal = cluster_->recovery().wal_enabled();
  const std::uint64_t db = cluster_->options().db_size;
  for (ObjectId oid = 0; oid < db; ++oid) {
    const NodeId owner = options_.ownership->OwnerOf(oid);
    // A crashed master's wiped store legitimately lags its replicas
    // until restart recovery catches it up; skip until then.
    if (wal && cluster_->node(owner)->crashed()) continue;
    const Timestamp master_ts =
        cluster_->node(owner)->store().GetUnchecked(oid).ts();
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      if (id == owner) continue;
      if (wal && cluster_->node(id)->crashed()) continue;
      const Timestamp ts = cluster_->node(id)->store().GetUnchecked(oid).ts();
      if (ts > master_ts) {
        Report("single-master-dominance",
               StrPrintf("object %llu: replica at node %u (ts %s) is ahead "
                         "of master node %u (ts %s)",
                         (unsigned long long)oid, id, ts.ToString().c_str(),
                         owner, master_ts.ToString().c_str()));
      }
    }
  }
}

void InvariantChecker::CheckQuorumIntersection() {
  // The newest committed version of each object must be held by
  // replicas mustering >= write_quorum votes: every future write (and
  // with R+W > V, every read) quorum then intersects it. Under
  // DurabilityMode::kOff stores are durable, so crashed nodes still
  // count. Under the WAL a crashed node's store is wiped until replay,
  // so its lost votes say nothing about the write quorums; like the
  // other sweeps, this one waits until every node is back up.
  if (cluster_->recovery().wal_enabled()) {
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      if (cluster_->node(id)->crashed()) return;
    }
  }
  const QuorumEagerScheme* q = options_.quorum;
  const std::uint64_t db = cluster_->options().db_size;
  for (ObjectId oid = 0; oid < db; ++oid) {
    Timestamp newest = Timestamp::Zero();
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      const Timestamp ts = cluster_->node(id)->store().GetUnchecked(oid).ts();
      if (ts > newest) newest = ts;
    }
    if (newest.IsZero()) continue;  // never written: everyone agrees
    std::uint32_t votes = 0;
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      if (cluster_->node(id)->store().GetUnchecked(oid).ts() == newest) {
        votes += q->VoteOf(id);
      }
    }
    if (votes < q->write_quorum()) {
      Report("quorum-intersection",
             StrPrintf("object %llu: newest version ts %s held by only %u "
                       "of %u required votes",
                       (unsigned long long)oid, newest.ToString().c_str(),
                       votes, q->write_quorum()));
    }
  }
}

void InvariantChecker::CheckConvergence() {
  if (options_.scheme == SchemeKind::kLazyGroup) {
    // Divergence here is the paper's system delusion — the invariant is
    // that we DETECT it, not that it is absent.
    delusion_slots_ = cluster_->DivergentSlots();
    cluster_->metrics().Increment("invariant.delusion_slots",
                                   delusion_slots_);
    return;
  }
  if (options_.scheme == SchemeKind::kTwoTier) {
    // Mobile replicas may legitimately lag (they refresh on their own
    // schedule); the paper's property 4 binds the always-connected tier.
    const TwoTierSystem* sys = options_.two_tier;
    if (sys != nullptr && !sys->BaseTierConverged()) {
      Report("base-tier-convergence",
             "base-tier replicas differ after heal and drain");
    }
    return;
  }
  if (!cluster_->Converged()) {
    Report("convergence",
           StrPrintf("replicas differ after heal and drain: %llu divergent "
                     "slots",
                     (unsigned long long)cluster_->DivergentSlots()));
  }
}

void InvariantChecker::CheckTwoTierLedger() {
  // "No lost base updates": every tentative transaction was reprocessed
  // at the base as committed or rejected-with-reason, and nothing is
  // still queued once the system is healed and drained.
  const TwoTierSystem* sys = options_.two_tier;
  const std::uint64_t accounted =
      sys->base_committed() + sys->base_rejected();
  std::uint64_t still_pending = 0;
  for (NodeId id : sys->MobileIds()) {
    still_pending += sys->mobile(id).PendingCount();
  }
  if (sys->tentative_submitted() != accounted + still_pending) {
    Report("two-tier-ledger",
           StrPrintf("tentative_submitted=%llu but base_committed=%llu + "
                     "base_rejected=%llu + pending=%llu",
                     (unsigned long long)sys->tentative_submitted(),
                     (unsigned long long)sys->base_committed(),
                     (unsigned long long)sys->base_rejected(),
                     (unsigned long long)still_pending));
  }
  if (still_pending != 0) {
    Report("two-tier-ledger",
           StrPrintf("%llu tentative transaction(s) still queued after "
                     "heal and drain",
                     (unsigned long long)still_pending));
  }
}

void InvariantChecker::Report(const char* invariant, std::string detail) {
  cluster_->metrics().Increment("invariant.violations");
  if (violations_.size() >= kMaxRecorded) return;
  Violation v;
  v.invariant = invariant;
  v.detail = std::move(detail);
  v.at = cluster_->sim().Now();
  if (options_.trace_fn) v.fault_trace = options_.trace_fn();
  violations_.push_back(std::move(v));
}

std::vector<Violation> InvariantChecker::TakeViolations() {
  std::vector<Violation> out = std::move(violations_);
  violations_.clear();
  return out;
}

}  // namespace tdr::fault
