#include "bench/harness.h"

#include <cmath>

#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "replication/driver.h"
#include "util/logging.h"

namespace tdr::bench {

namespace {

fault::SchemeClass ToSchemeClass(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kEagerGroup:
    case SchemeKind::kEagerGroupParallel:
    case SchemeKind::kEagerGroupReadLocks:
      return fault::SchemeClass::kEagerGroup;
    case SchemeKind::kEagerMaster:
      return fault::SchemeClass::kEagerMaster;
    case SchemeKind::kLazyGroup:
      return fault::SchemeClass::kLazyGroup;
    case SchemeKind::kLazyMaster:
      return fault::SchemeClass::kLazyMaster;
  }
  return fault::SchemeClass::kEagerGroup;
}

}  // namespace

std::string_view SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kEagerGroup:
      return "eager-group";
    case SchemeKind::kEagerGroupParallel:
      return "eager-group-parallel";
    case SchemeKind::kEagerGroupReadLocks:
      return "eager-group-readlocks";
    case SchemeKind::kEagerMaster:
      return "eager-master";
    case SchemeKind::kLazyGroup:
      return "lazy-group";
    case SchemeKind::kLazyMaster:
      return "lazy-master";
  }
  return "?";
}

analytic::ModelParams ToModelParams(const SimConfig& config) {
  analytic::ModelParams p;
  p.db_size = static_cast<double>(config.db_size);
  p.nodes = config.nodes;
  p.tps = config.tps;
  p.actions = config.actions;
  p.action_time = config.action_time;
  return p;
}

namespace {

/// The deterministic fault plan `config`'s knobs expand to (empty plan
/// when the config is clean).
fault::FaultPlan BuildFaultPlan(const SimConfig& config) {
  fault::FaultPlan plan;
  if (config.fault_drop_probability > 0) {
    fault::ChaosProfile chaos;
    chaos.drop_probability = config.fault_drop_probability;
    plan.WithChaos(chaos);
  }
  if (config.fault_partition_cycle && config.nodes > 1) {
    // One cycle: the last node splits off for the middle third.
    plan.PartitionAt(SimTime::Seconds(config.sim_seconds / 3), "cycle",
                     {static_cast<NodeId>(config.nodes - 1)})
        .HealPartitionAt(SimTime::Seconds(2 * config.sim_seconds / 3),
                         "cycle");
  }
  if (config.fault_crash_cycle && config.nodes > 1) {
    // Crash the last node for the middle third; restart routes
    // through Cluster::recovery() — WAL replay under kCommit/kGroup,
    // the legacy durable-store model under kOff.
    plan.CrashAt(SimTime::Seconds(config.sim_seconds / 3),
                 static_cast<NodeId>(config.nodes - 1))
        .RestartAt(SimTime::Seconds(2 * config.sim_seconds / 3),
                   static_cast<NodeId>(config.nodes - 1));
  }
  return plan;
}

}  // namespace

SimOutcome RunScheme(const SimConfig& config) {
  Cluster::Options copts;
  copts.num_nodes = config.nodes;
  copts.db_size = config.db_size;
  copts.num_shards = config.num_shards;
  copts.action_time = SimTime::Seconds(config.action_time);
  copts.seed = config.seed;
  copts.backend = config.backend;
  copts.wal.mode = config.durability;
  copts.wal.wal_dir = config.wal_dir;
  Cluster cluster(copts);

  BatchShipper::Options batch;
  batch.flush_window = SimTime::Seconds(config.batch_flush_window);
  batch.max_batch_updates =
      static_cast<std::size_t>(config.batch_max_updates);

  std::vector<NodeId> all_nodes(config.nodes);
  for (std::uint32_t i = 0; i < config.nodes; ++i) all_nodes[i] = i;
  Ownership ownership = Ownership::RoundRobin(config.db_size, all_nodes);

  const bool faulted = config.fault_drop_probability > 0 ||
                       config.fault_partition_cycle ||
                       config.fault_crash_cycle;

  std::unique_ptr<ReplicationScheme> scheme;
  LazyGroupScheme* lazy_group = nullptr;
  LazyMasterScheme* lazy_master = nullptr;
  switch (config.kind) {
    case SchemeKind::kEagerGroup:
      scheme = std::make_unique<EagerGroupScheme>(&cluster);
      break;
    case SchemeKind::kEagerGroupParallel: {
      EagerGroupScheme::Options o;
      o.parallel_replica_updates = true;
      scheme = std::make_unique<EagerGroupScheme>(&cluster, o);
      break;
    }
    case SchemeKind::kEagerGroupReadLocks: {
      EagerGroupScheme::Options o;
      o.lock_reads = true;
      scheme = std::make_unique<EagerGroupScheme>(&cluster, o);
      break;
    }
    case SchemeKind::kEagerMaster:
      scheme = std::make_unique<EagerMasterScheme>(&cluster, &ownership);
      break;
    case SchemeKind::kLazyGroup: {
      LazyGroupScheme::Options o;
      o.batch = batch;
      auto lg = std::make_unique<LazyGroupScheme>(&cluster, o);
      lazy_group = lg.get();
      scheme = std::move(lg);
      break;
    }
    case SchemeKind::kLazyMaster: {
      LazyMasterScheme::Options o;
      // Faulted runs need the reconnect/heal catch-up hooks, or replicas
      // that missed updates during an outage would never converge.
      o.reconnect_catch_up = faulted;
      o.batch = batch;
      auto lm = std::make_unique<LazyMasterScheme>(&cluster, &ownership, o);
      lazy_master = lm.get();
      scheme = std::move(lm);
      break;
    }
  }

  // Fault layer: a deterministic plan (drawn from its own RNG stream)
  // plus the always-on invariant checker. Violations left in the checker
  // abort the process at scope exit — a benchmark under faults is also a
  // correctness gate.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::InvariantChecker> checker;
  if (faulted) {
    injector = std::make_unique<fault::FaultInjector>(
        &cluster, BuildFaultPlan(config), Rng(config.seed, 777));
  }
  if (faulted || config.run_invariant_checker) {
    fault::InvariantChecker::Options chk;
    chk.scheme = ToSchemeClass(config.kind);
    chk.ownership = &ownership;
    chk.check_interval = SimTime::Seconds(config.sim_seconds / 20);
    if (injector != nullptr) {
      chk.trace_fn = [inj = injector.get()]() {
        return inj->AppliedLogString();
      };
    }
    checker = std::make_unique<fault::InvariantChecker>(&cluster, chk);
  }
  if (injector != nullptr) injector->Arm();
  if (checker != nullptr) checker->Arm();

  WorkloadDriver::Options dopts;
  dopts.tps_per_node = config.tps;
  dopts.workload.actions = config.actions;
  dopts.workload.mix = config.mix;
  if (config.hot_shards > 0 && config.hot_fraction > 0) {
    dopts.workload.skew_num_shards =
        config.skew_shards != 0 ? config.skew_shards : config.num_shards;
    dopts.workload.skew_hot_shards = config.hot_shards;
    dopts.workload.skew_hot_fraction = config.hot_fraction;
  }
  dopts.seconds = config.sim_seconds;
  WorkloadDriver driver(&cluster, scheme.get(), dopts);
  WorkloadDriver::Outcome out = driver.Run();

  SimOutcome outcome;
  if (checker != nullptr) checker->Disarm();
  if (injector != nullptr) {
    injector->Disarm();
    injector->HealAll();
  }
  if (faulted || config.drain) {
    // Heal, drain, anti-entropy. Pending batch windows are bounded
    // staleness, not loss: drain them before the convergence check,
    // like any other in-flight traffic.
    if (lazy_group != nullptr) lazy_group->FlushAllBatches();
    if (lazy_master != nullptr) lazy_master->FlushAllBatches();
    cluster.runtime().Run();
    if (lazy_master != nullptr) lazy_master->CatchUpAll();
    cluster.runtime().Run();
  }
  if (checker != nullptr) {
    // The final invariant check: convergence, or recorded delusion for
    // lazy-group. Violations stay unacknowledged: the checker
    // destructor reports them and aborts the benchmark (the CI
    // robustness gate).
    checker->CheckFinal();
    outcome.invariant_violations = checker->violations_total();
    outcome.delusion_slots = checker->delusion_slots();
  }
  if (injector != nullptr) {
    outcome.injected_drops = injector->injected_drops();
  }
  outcome.seconds = out.seconds;
  outcome.submitted = out.submitted;
  outcome.committed = out.committed;
  outcome.deadlocks = out.deadlocks;
  outcome.waits = out.waits;
  outcome.reconciliations = out.reconciliations;
  outcome.unavailable = out.unavailable;
  outcome.replica_deadlocks = out.replica_deadlocks;
  outcome.replica_applied = out.replica_applied;
  outcome.divergent_slots = out.divergent_slots;
  const BatchShipper* shipper = nullptr;
  if (lazy_group != nullptr) shipper = lazy_group->batch_shipper();
  if (lazy_master != nullptr) shipper = lazy_master->batch_shipper();
  if (shipper != nullptr) {
    outcome.batches_shipped = shipper->batches_shipped();
    outcome.updates_coalesced = shipper->updates_coalesced();
  }
  if (cluster.wals() != nullptr) {
    const wal::WalMetrics& wm = cluster.wals()->wal_metrics();
    outcome.wal_records = wm.records_appended.value();
    outcome.wal_flushes = wm.flushes.value();
  }
  outcome.wal_recoveries = cluster.recovery().recoveries();
  outcome.wal_replayed = cluster.recovery().records_replayed();
  // Equivalence fingerprints: the full-state digest plus per-shard
  // digests, captured after any drain so both backends see the same
  // quiesced state.
  outcome.state_digest = cluster.StateDigest();
  outcome.shard_digests.reserve(
      static_cast<std::size_t>(cluster.shards().num_shards()) *
      cluster.size());
  for (ShardId s = 0; s < cluster.shards().num_shards(); ++s) {
    for (std::uint64_t d : cluster.ShardDigests(s)) {
      outcome.shard_digests.push_back(d);
    }
  }
  if (cluster.thread_runtime() != nullptr) {
    // Join the workers now (idempotent — the destructor also does it)
    // so the runtime's kProfile metrics are published and its counters
    // are final before the snapshot below.
    cluster.thread_runtime()->Shutdown();
    outcome.runtime_dispatched = cluster.thread_runtime()->dispatched();
  }
  // Export the simulator's own health gauges before snapshotting; they
  // are deterministic (event counts, not wall time).
  cluster.metrics().SetGauge(
      "sim.executed_events",
      static_cast<double>(cluster.sim().executed_events()));
  cluster.metrics().SetGauge(
      "sim.clamped_schedules",
      static_cast<double>(cluster.sim().clamped_schedules()));
  outcome.metrics = cluster.metrics().Snapshot();
  return outcome;
}

std::vector<SimOutcome> RunSweep(const std::vector<SimConfig>& configs,
                                 SweepOptions options) {
  sim::SweepRunner runner(sim::SweepRunner::Options{options.threads});
  return runner.Map<SimOutcome>(
      configs.size(), [&](std::size_t i) { return RunScheme(configs[i]); });
}

obs::RunReport MakeReport(std::string experiment, const SimConfig& config) {
  obs::RunReport report(std::move(experiment));
  report.SetConfig("scheme", SchemeKindName(config.kind))
      .SetConfig("nodes", static_cast<std::uint64_t>(config.nodes))
      .SetConfig("db_size", config.db_size)
      .SetConfig("tps", config.tps)
      .SetConfig("actions", static_cast<std::uint64_t>(config.actions))
      .SetConfig("action_time", config.action_time)
      .SetConfig("sim_seconds", config.sim_seconds)
      .SetConfig("seed", config.seed)
      .SetConfig("num_shards", static_cast<std::uint64_t>(config.num_shards))
      .SetConfig("batch_flush_window", config.batch_flush_window)
      .SetConfig("batch_max_updates", config.batch_max_updates)
      .SetConfig("hot_fraction", config.hot_fraction)
      .SetConfig("hot_shards", static_cast<std::uint64_t>(config.hot_shards))
      .SetConfig("durability", DurabilityModeName(config.durability));
  return report;
}

SimConfig E15Config(SchemeKind kind, std::uint64_t seed) {
  SimConfig c;
  c.kind = kind;
  c.nodes = 4;
  c.db_size = 256;
  c.tps = 25;
  c.actions = 4;
  c.action_time = 0.01;
  c.sim_seconds = 5;
  c.seed = seed;
  c.num_shards = 4;
  c.drain = true;
  c.run_invariant_checker = true;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 16;
  }
  return c;
}

std::string FaultPlanName(const SimConfig& config) {
  std::string name;
  auto append = [&name](const std::string& part) {
    if (!name.empty()) name += '+';
    name += part;
  };
  if (config.fault_drop_probability > 0) {
    append(StrPrintf("drop=%g", config.fault_drop_probability));
  }
  if (config.fault_partition_cycle) append("partition");
  if (config.fault_crash_cycle) append("crash");
  if (name.empty()) name = "none";
  return name;
}

obs::Json ReportRow(const SimConfig& config, const SimOutcome& out) {
  obs::Json row = obs::Json::Object();
  row.Set("scheme", SchemeKindName(config.kind));
  row.Set("nodes", static_cast<std::uint64_t>(config.nodes));
  row.Set("seed", config.seed);
  row.Set("submitted", out.submitted);
  row.Set("committed", out.committed);
  row.Set("committed_per_sec", out.Rate(out.committed));
  row.Set("deadlock_rate", out.deadlock_rate());
  row.Set("wait_rate", out.wait_rate());
  row.Set("reconciliation_rate", out.reconciliation_rate());
  row.Set("unavailable", out.unavailable);
  row.Set("divergent_slots", out.divergent_slots);
  // Every row names its fault plan, an identity field for
  // tools/report.py regress.
  row.Set("fault_plan", FaultPlanName(config));
  if (config.durability != DurabilityMode::kOff) {
    row.Set("durability", DurabilityModeName(config.durability));
    row.Set("wal_records", out.wal_records);
    row.Set("wal_flushes", out.wal_flushes);
    row.Set("wal_recoveries", out.wal_recoveries);
    row.Set("wal_replayed", out.wal_replayed);
  }
  if (config.num_shards > 1) {
    row.Set("num_shards", static_cast<std::uint64_t>(config.num_shards));
  }
  if (config.batch_flush_window > 0 || config.batch_max_updates > 0) {
    row.Set("batch_flush_window", config.batch_flush_window);
    row.Set("batches_shipped", out.batches_shipped);
    row.Set("updates_coalesced", out.updates_coalesced);
  }
  return row;
}

void WriteReport(const obs::RunReport& report, const std::string& path) {
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "warning: cannot write report to %s\n",
                 path.c_str());
    return;
  }
  std::printf("\nreport: %s\n", path.c_str());
}

void PrintBanner(const char* experiment_id, const char* title,
                 const char* paper_ref) {
  std::printf("\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s: %s\n", experiment_id, title);
  std::printf("Paper artifact: %s\n", paper_ref);
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace tdr::bench
