#include "replication/driver.h"

#include <memory>
#include <string>

namespace tdr {

namespace {

ProgramGenerator::Options WithDbSize(ProgramGenerator::Options o,
                                     std::uint64_t db_size) {
  o.db_size = db_size;
  return o;
}

}  // namespace

WorkloadDriver::WorkloadDriver(Cluster* cluster, ReplicationScheme* scheme,
                               Options options)
    : cluster_(cluster),
      scheme_(scheme),
      options_(options),
      generator_(WithDbSize(options.workload, cluster->options().db_size)) {
  // Resolve every labeled handle once: metric resolution builds label
  // strings, and an arrival then counts without allocating. Run() still
  // allocates each window's arrival processes (per node a shared Rng,
  // an OpenLoopArrivals and its closure; EXPERIMENTS.md E14 counts
  // them). Building those once here would change the arrival RNG forks,
  // and with them every digest.
  for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
    submitted_at_.push_back(cluster_->metrics().GetCounter(
        "driver.submitted", {{"node", std::to_string(origin)}}));
  }
  skipped_crashed_ = cluster_->metrics().GetCounter("driver.skipped_crashed");
}

std::uint64_t WorkloadDriver::submitted() const {
  std::uint64_t total = 0;
  for (const obs::MetricsRegistry::Counter& c : submitted_at_) {
    total += c.value();
  }
  return total;
}

void WorkloadDriver::Run() {
  Rng rng = cluster_->ForkRng();
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (NodeId origin = 0; origin < cluster_->size(); ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = options_.tps_per_node;
    // On the thread backend each origin's arrivals (and the submission
    // chain they start) execute on that origin's worker thread.
    aopts.node_affinity = origin;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    // The counter handles were resolved in the constructor; bumping
    // them is allocation-free on every arrival. The closure itself is
    // one heap block per origin (std::function), inside bench_hot_path's
    // audited window: its captures are part of E14's byte count.
    obs::MetricsRegistry::Counter submitted_at = submitted_at_[origin];
    obs::MetricsRegistry::Counter skipped_crashed = skipped_crashed_;
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster_->runtime(), aopts, rng.Fork(),
        [this, origin, gen_rng, submitted_at, skipped_crashed]() mutable {
          if (cluster_->node(origin)->crashed()) {
            // A crashed node originates nothing; its arrival stream
            // still ticks (and consumes randomness) so the fault does
            // not perturb other nodes' workloads.
            skipped_crashed.Increment();
            generator_.NextInto(*gen_rng, &program_scratch_);
            return;
          }
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
}

}  // namespace tdr
