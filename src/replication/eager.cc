#include "replication/eager.h"

#include <utility>

namespace tdr {

namespace {

/// Synthesizes an "unavailable" result for a transaction that never ran.
TxnResult UnavailableResult(NodeId origin, SimTime now) {
  TxnResult r;
  r.origin = origin;
  r.outcome = TxnOutcome::kUnavailable;
  r.start_time = now;
  r.end_time = now;
  return r;
}

bool AllReachable(Cluster* cluster, NodeId origin) {
  for (NodeId id = 0; id < cluster->size(); ++id) {
    if (!cluster->net().Reachable(origin, id)) return false;
  }
  return true;
}

}  // namespace

void EagerGroupScheme::Submit(NodeId origin, const Program& program,
                              DoneCallback done) {
  if (!cluster_->node(origin)->connected() ||
      !AllReachable(cluster_, origin)) {
    cluster_->metrics().Increment("scheme.unavailable");
    if (done) done(UnavailableResult(origin, cluster_->sim().Now()));
    return;
  }
  // Compile: each write applies at the origin replica first, then at
  // every other replica, sequentially — Figure 1's
  // three-node eager transaction. The plan builds in the executor's
  // scratch buffer and runs out of a pooled transaction record.
  std::vector<ExecStep>& steps = cluster_->executor().NewPlan();
  for (const Op& op : program.ops()) {
    if (!op.IsWrite()) {
      steps.push_back(ExecStep{origin, op});
      continue;
    }
    steps.push_back(ExecStep{origin, op});
    for (NodeId n = 0; n < cluster_->size(); ++n) {
      if (n == origin) continue;
      steps.push_back(
          ExecStep{n, op, /*charge=*/!options_.parallel_replica_updates});
    }
  }
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = false;
  opts.lock_reads = options_.lock_reads;
  opts.wait_timeout = options_.wait_timeout;
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

void EagerMasterScheme::Submit(NodeId origin, const Program& program,
                               DoneCallback done) {
  // Every node reachable implies every master reachable: "A node wanting
  // to update an object must be connected to the object owner" (§5;
  // same constraint eagerly).
  if (!cluster_->node(origin)->connected() ||
      !AllReachable(cluster_, origin)) {
    cluster_->metrics().Increment("scheme.unavailable");
    if (done) done(UnavailableResult(origin, cluster_->sim().Now()));
    return;
  }
  // Compile: writes lock the master copy first ("updates go to this node
  // first and are then applied to the replicas"), then fan out.
  std::vector<ExecStep>& steps = cluster_->executor().NewPlan();
  for (const Op& op : program.ops()) {
    NodeId owner = ownership_->OwnerOf(op.oid);
    if (!op.IsWrite()) {
      // Reads consult the master copy (the current value by definition).
      steps.push_back(ExecStep{owner, op});
      continue;
    }
    steps.push_back(ExecStep{owner, op});
    for (NodeId n = 0; n < cluster_->size(); ++n) {
      if (n == owner) continue;
      steps.push_back(ExecStep{n, op});
    }
  }
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = false;
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

}  // namespace tdr
