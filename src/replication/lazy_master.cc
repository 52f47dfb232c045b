#include "replication/lazy_master.h"

#include <cassert>
#include <cstddef>
#include <utility>

namespace tdr {

LazyMasterScheme::LazyMasterScheme(Cluster* cluster,
                                   const Ownership* ownership,
                                   Options options)
    : cluster_(cluster),
      ownership_(ownership),
      applier_(&cluster->sim(), &cluster->executor(),
               &cluster->metrics()),
      shipper_(&cluster->sim(), &cluster->net(), cluster->size(), name(),
               &cluster->metrics(), options.batch,
               [this](const UpdateBatch& batch) {
                 ApplyAt(cluster_->node(batch.dest), batch.updates);
               }) {
  if (options.reconnect_catch_up) {
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      cluster_->net().OnReconnect(id, [this, id]() { CatchUpNode(id); });
    }
    cluster_->net().OnLinkRestored([this](NodeId a, NodeId b) {
      if (cluster_->node(a)->connected()) CatchUpNode(a);
      if (cluster_->node(b)->connected()) CatchUpNode(b);
    });
  }
}

void LazyMasterScheme::Submit(NodeId origin, const Program& program,
                              DoneCallback done) {
  SubmitWithPrecommit(origin, program, nullptr, std::move(done));
}

void LazyMasterScheme::SubmitWithPrecommit(NodeId origin,
                                           const Program& program,
                                           Executor::PrecommitHook precommit,
                                           DoneCallback done) {
  // The originating node and every touched object's master must be
  // reachable; otherwise the RPC to the owner cannot happen. Reachable
  // covers connectivity AND link partitions between origin and owner.
  bool reachable = cluster_->node(origin)->connected();
  if (reachable) {
    for (const Op& op : program.ops()) {
      if (!cluster_->net().Reachable(origin, ownership_->OwnerOf(op.oid))) {
        reachable = false;
        break;
      }
    }
  }
  if (!reachable) {
    cluster_->metrics().Increment("scheme.unavailable");
    TxnResult r;
    r.origin = origin;
    r.outcome = TxnOutcome::kUnavailable;
    r.start_time = cluster_->sim().Now();
    r.end_time = r.start_time;
    if (done) done(r);
    return;
  }
  // Compile: every op runs at its object's master. This is the "send an
  // RPC to the node owning the object" model; the message costs are the
  // ones the paper ignores. Propagation hangs off the observer hook
  // rather than a wrapper around `done`, so submission allocates
  // nothing (beyond a caller-supplied precommit closure).
  std::vector<ExecStep>& steps = cluster_->executor().NewPlan();
  for (const Op& op : program.ops()) {
    steps.push_back(ExecStep{ownership_->OwnerOf(op.oid), op});
  }
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = true;
  opts.precommit = std::move(precommit);
  opts.observer = this;
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

void LazyMasterScheme::OnTxnDone(const TxnResult& result) {
  if (result.outcome == TxnOutcome::kCommitted) Propagate(result);
}

void LazyMasterScheme::CatchUpNode(NodeId node) {
  Node* dest = cluster_->node(node);
  for (ObjectId oid = 0; oid < dest->store().size(); ++oid) {
    NodeId owner = ownership_->OwnerOf(oid);
    if (owner == node) continue;  // the master copy is authoritative
    if (!cluster_->net().Reachable(node, owner)) continue;
    const StoredObject& master =
        cluster_->node(owner)->store().GetUnchecked(oid);
    bool applied = false;
    Status s = dest->store().ApplyIfNewer(oid, master.value(), master.ts(),
                                          &applied);
    assert(s.ok());
    (void)s;
    if (applied) cluster_->metrics().Increment("lazy_master.catch_up_objects");
  }
}

void LazyMasterScheme::CatchUpAll() {
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (cluster_->node(id)->connected()) CatchUpNode(id);
  }
}

void LazyMasterScheme::Propagate(const TxnResult& result) {
  // Each master broadcasts one slave-refresh transaction per other node.
  // The executor emits update records ordered by (executing node, oid),
  // so each master's records form one contiguous run — grouping is a
  // scan, not a map build, and visits masters in ascending order.
  const std::vector<UpdateRecord>& updates = result.updates;
  for (std::size_t i = 0; i < updates.size();) {
    const NodeId master = updates[i].origin;
    std::size_t j = i;
    while (j < updates.size() && updates[j].origin == master) ++j;
    for (NodeId dest = 0; dest < cluster_->size(); ++dest) {
      shipper_.Enqueue(master, dest, &updates[i], j - i);
    }
    i = j;
  }
}

void LazyMasterScheme::ApplyAt(Node* dest,
                               const std::vector<UpdateRecord>& records) {
  ReplicaApplier::Options aopts;
  aopts.action_time = cluster_->options().action_time;
  aopts.mode = ReplicaApplier::Mode::kNewerWins;
  aopts.shards = &cluster_->shards();
  applier_.Apply(dest, records, aopts,
                 [this](const ReplicaApplier::Report& report) {
                   slave_applied_ += report.applied;
                 });
}

}  // namespace tdr
