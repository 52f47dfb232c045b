#include "replication/driver.h"

#include "replication/lazy_group.h"
#include "util/logging.h"

namespace tdr {

namespace {

ProgramGenerator::Options WithDbSize(ProgramGenerator::Options o,
                                     std::uint64_t db_size) {
  o.db_size = db_size;
  return o;
}

}  // namespace

std::string WorkloadDriver::Outcome::ToString() const {
  return StrPrintf(
      "window=%.0fs submitted=%llu committed=%llu deadlocks=%llu "
      "waits=%llu reconciliations=%llu unavailable=%llu divergent=%llu",
      seconds, (unsigned long long)submitted, (unsigned long long)committed,
      (unsigned long long)deadlocks, (unsigned long long)waits,
      (unsigned long long)reconciliations, (unsigned long long)unavailable,
      (unsigned long long)divergent_slots);
}

WorkloadDriver::WorkloadDriver(Cluster* cluster, ReplicationScheme* scheme,
                               Options options)
    : cluster_(cluster),
      scheme_(scheme),
      options_(options),
      generator_(WithDbSize(options.workload, cluster->options().db_size)) {
  // Resolve every labeled handle once — metric resolution builds label
  // strings, and Run() is expected to stay allocation-free per window
  // (the E14 steady-state contract).
  for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
    submitted_at_.push_back(cluster_->metrics().GetCounter(
        "driver.submitted", {{"node", std::to_string(origin)}}));
  }
  skipped_crashed_ = cluster_->metrics().GetCounter("driver.skipped_crashed");
}

std::uint64_t WorkloadDriver::CurrentReconciliations() const {
  auto* lazy_group = dynamic_cast<LazyGroupScheme*>(scheme_);
  return lazy_group != nullptr
             ? lazy_group->reconciliations()
             : cluster_->metrics().Get("replica.conflicts");
}

WorkloadDriver::Baseline WorkloadDriver::Snapshot() const {
  Baseline b;
  b.committed = cluster_->executor().committed();
  b.deadlocks = cluster_->executor().deadlocked();
  b.waits = cluster_->metrics().Get("lock.waits");
  b.reconciliations = CurrentReconciliations();
  b.unavailable = cluster_->metrics().Get("scheme.unavailable");
  b.replica_deadlocks = cluster_->metrics().Get("replica.deadlocks");
  b.replica_applied = cluster_->metrics().Get("replica.applied");
  b.wait_timeouts = cluster_->executor().wait_timeouts();
  return b;
}

WorkloadDriver::Outcome WorkloadDriver::Run() {
  Baseline before = Snapshot();
  Outcome outcome;
  outcome.seconds = options_.seconds;

  Rng rng = cluster_->ForkRng();
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = options_.tps_per_node;
    // On the thread backend each origin's arrivals (and the submission
    // chain they start) execute on that origin's worker thread.
    aopts.node_affinity = origin;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    // Per-origin submission counter handles were resolved in the
    // constructor; bumping them is allocation-free on every arrival.
    obs::MetricsRegistry::Counter submitted_at = submitted_at_[origin];
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster_->runtime(), aopts, rng.Fork(),
        [this, &outcome, origin, gen_rng, submitted_at]() mutable {
          if (cluster_->node(origin)->crashed()) {
            // A crashed node originates nothing; its arrival stream
            // still ticks (and consumes randomness) so the fault does
            // not perturb other nodes' workloads.
            skipped_crashed_.Increment();
            generator_.NextInto(*gen_rng, &program_scratch_);
            return;
          }
          ++outcome.submitted;
          submitted_at.Increment();
          generator_.NextInto(*gen_rng, &program_scratch_);
          scheme_->Submit(origin, program_scratch_, nullptr);
        }));
    arrivals.back()->Start();
  }
  SimTime horizon =
      cluster_->runtime().Now() + SimTime::Seconds(options_.seconds);
  cluster_->runtime().RunUntil(horizon);
  for (auto& a : arrivals) a->Stop();

  Baseline after = Snapshot();
  outcome.committed = after.committed - before.committed;
  outcome.deadlocks = after.deadlocks - before.deadlocks;
  outcome.waits = after.waits - before.waits;
  outcome.reconciliations = after.reconciliations - before.reconciliations;
  outcome.unavailable = after.unavailable - before.unavailable;
  outcome.replica_deadlocks =
      after.replica_deadlocks - before.replica_deadlocks;
  outcome.replica_applied = after.replica_applied - before.replica_applied;
  outcome.wait_timeouts = after.wait_timeouts - before.wait_timeouts;
  outcome.divergent_slots = cluster_->DivergentSlots();
  return outcome;
}

}  // namespace tdr
