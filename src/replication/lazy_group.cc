#include "replication/lazy_group.h"

#include <utility>

namespace tdr {

LazyGroupScheme::LazyGroupScheme(Cluster* cluster, Options options)
    : cluster_(cluster),
      applier_(&cluster->sim(), &cluster->executor(),
               &cluster->metrics()),
      shipper_(&cluster->sim(), &cluster->net(), cluster->size(), name(),
               &cluster->metrics(), options.batch,
               [this](const UpdateBatch& batch) {
                 ApplyAt(cluster_->node(batch.dest), batch.updates);
               }) {}

void LazyGroupScheme::Submit(NodeId origin, const Program& program,
                             DoneCallback done) {
  // The root transaction is purely local — that is the whole point of
  // lazy replication ("One replica is updated by the originating
  // transaction", Figure 1). A disconnected mobile node can still run it.
  // Propagation hangs off the observer hook rather than a wrapper
  // around `done`, so submission allocates nothing.
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = true;
  opts.observer = this;
  LocalPlanInto(origin, program, &cluster_->executor().NewPlan());
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

void LazyGroupScheme::OnTxnDone(const TxnResult& result) {
  if (result.outcome == TxnOutcome::kCommitted) Propagate(result);
}

void LazyGroupScheme::Propagate(const TxnResult& result) {
  // One replica-update transaction per remote node (Figure 1's "three
  // transactions"), shipped through the batch plane. If the origin is
  // disconnected, Network queues them in its outbox until reconnect —
  // the 24-hour-propagation-delay effect of §4's mobile scenario.
  for (NodeId dest = 0; dest < cluster_->size(); ++dest) {
    shipper_.Enqueue(result.origin, dest, result.updates);
  }
}

void LazyGroupScheme::ApplyAt(Node* dest,
                              const std::vector<UpdateRecord>& records) {
  ReplicaApplier::Options aopts;
  aopts.action_time = cluster_->options().action_time;
  aopts.mode = ReplicaApplier::Mode::kTimestampMatch;
  aopts.shards = &cluster_->shards();
  applier_.Apply(dest, records, aopts,
                 [this](const ReplicaApplier::Report& report) {
                   if (report.conflicts > 0) {
                     cluster_->metrics().Increment(
                         "lazy_group.reconciliations", report.conflicts);
                   }
                 });
}

}  // namespace tdr
