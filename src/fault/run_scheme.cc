#include "fault/run_scheme.h"

#include <cassert>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/acceptance.h"
#include "core/two_tier.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "obs/chrome_trace.h"
#include "obs/timeseries.h"
#include "replication/driver.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/quorum.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace tdr {

namespace {

/// `config.plan` plus the faults its knobs expand to.
fault::FaultPlan BuildFaultPlan(const SimConfig& config) {
  fault::FaultPlan plan = config.plan;
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

/// Two-tier's window: one base arrival series per base node, and each
/// mobile node working disconnected through four cycles, its tentative
/// transactions reprocessed at the base when it reconnects.
void RunTwoTierWindow(TwoTierSystem& sys, const SimConfig& config,
                      SimOutcome* out) {
  constexpr std::uint32_t kTentativePerCycle = 3;
  constexpr int kCycles = 4;
  Rng rng(config.seed, 555);
  ProgramGenerator::Options gopts;
  gopts.db_size = config.db_size;
  gopts.actions = 2;
  ProgramGenerator gen(gopts);

  std::vector<sim::EventId> base_series;
  SimTime gap = SimTime::Seconds(config.tps > 0 ? 1.0 / config.tps
                                                : config.sim_seconds);
  for (NodeId b = 0; b < sys.num_base(); ++b) {
    auto brng = std::make_shared<Rng>(rng.Fork());
    base_series.push_back(
        sys.sim().RepeatEvery(gap, [&sys, &gen, out, b, brng]() {
          Program p = gen.Next(*brng);
          if (sys.cluster().node(b)->crashed()) return;
          ++out->submitted;
          sys.SubmitBase(b, p, nullptr);
        }));
  }

  double cycle = config.sim_seconds / kCycles;
  for (NodeId m : sys.MobileIds()) {
    auto mrng = std::make_shared<Rng>(rng.Fork());
    for (int c = 0; c < kCycles; ++c) {
      double t0 = c * cycle;
      sys.sim().ScheduleAt(SimTime::Seconds(t0 + 0.02 * cycle),
                           [&sys, m]() { sys.Disconnect(m); });
      for (std::uint32_t k = 0; k < kTentativePerCycle; ++k) {
        double frac = 0.1 + 0.6 * (k + 1.0) / (kTentativePerCycle + 1.0);
        sys.sim().ScheduleAt(
            SimTime::Seconds(t0 + frac * cycle),
            [&sys, &gen, m, mrng]() {
              Program p = gen.Next(*mrng);
              if (sys.cluster().node(m)->crashed()) return;
              Status s = sys.SubmitTentative(m, std::move(p), AcceptAlways(),
                                             nullptr, nullptr);
              assert(s.ok());
              (void)s;
            });
      }
      sys.sim().ScheduleAt(SimTime::Seconds(t0 + 0.85 * cycle),
                           [&sys, m]() { sys.Connect(m); });
    }
  }

  sys.sim().RunUntil(SimTime::Seconds(config.sim_seconds));
  for (sim::EventId id : base_series) sys.sim().Cancel(id);
}

obs::Json InvariantSummaryJson(const SimOutcome& out,
                               const fault::InvariantChecker* checker) {
  obs::Json inv = obs::Json::Object();
  inv.Set("violations", out.violations);
  inv.Set("delusion_slots", out.delusion_slots);
  inv.Set("converged", out.converged);
  obs::Json list = obs::Json::Array();
  if (checker != nullptr) {
    for (const fault::Violation& v : checker->violations()) {
      obs::Json item = obs::Json::Object();
      item.Set("invariant", v.invariant);
      item.Set("detail", v.detail);
      item.Set("at_seconds", v.at.seconds());
      list.Push(std::move(item));
    }
  }
  inv.Set("violation_list", std::move(list));
  return inv;
}

void WriteReportFile(const SimConfig& config, const SimOutcome& out,
                     const obs::TimeSeries& series,
                     const fault::InvariantChecker* checker) {
  obs::RunReport report = MakeReport("run", config);
  obs::Json row = obs::Json::Object();
  row.Set("submitted", out.submitted);
  row.Set("committed", out.committed);
  row.Set("deadlocks", out.deadlocks);
  row.Set("unavailable", out.unavailable);
  row.Set("reconciliations", out.reconciliations);
  row.Set("catch_up_objects", out.catch_up_objects);
  row.Set("converged", out.converged);
  report.AddRow(std::move(row));
  report.SetMetrics(out.metrics);
  report.SetSeries(series);
  report.SetInvariants(InvariantSummaryJson(out, checker));
  if (!report.WriteFile(config.report_path)) {
    std::fprintf(stderr, "run: cannot write report to %s\n",
                 config.report_path.c_str());
  }
}

}  // namespace

SimOutcome RunScheme(const SimConfig& config) {
  const bool faulted = config.fault_drop_probability > 0 ||
                       config.fault_partition_cycle ||
                       config.fault_crash_cycle || !config.plan.empty();
  const bool checked = faulted || config.check_invariants;

  // The world: a cluster with one scheme on it, or a two-tier system,
  // which owns its cluster and its lazy-master base tier.
  std::unique_ptr<Cluster> own_cluster;
  std::unique_ptr<TwoTierSystem> two_tier;
  ClusterScheme built;
  if (config.kind == SchemeKind::kTwoTier) {
    TwoTierSystem::Options topts;
    topts.num_base = config.nodes;
    topts.num_mobile = 2;
    topts.db_size = config.db_size;
    topts.action_time = SimTime::Seconds(config.action_time);
    topts.seed = config.seed;
    two_tier = std::make_unique<TwoTierSystem>(topts);
  } else {
    Cluster::Options copts;
    copts.num_nodes = config.nodes;
    copts.db_size = config.db_size;
    copts.num_shards = config.num_shards;
    copts.action_time = SimTime::Seconds(config.action_time);
    copts.seed = config.seed;
    copts.backend = config.backend;
    copts.wal.mode = config.durability;
    copts.wal.wal_dir = config.wal_dir;
    own_cluster = std::make_unique<Cluster>(copts);
    BatchShipper::Options batch;
    batch.flush_window = SimTime::Seconds(config.batch_flush_window);
    batch.max_batch_updates =
        static_cast<std::size_t>(config.batch_max_updates);
    // Faulted runs need lazy master's reconnect/heal catch-up, or
    // replicas that missed refreshes during an outage never converge.
    built = MakeScheme(own_cluster.get(), config.kind, batch, faulted);
  }
  Cluster& cluster = two_tier ? two_tier->cluster() : *own_cluster;
  LazyMasterScheme* lazy_master =
      two_tier ? &two_tier->lazy_master() : built.lazy_master;

  // Fault layer: a deterministic plan on its own RNG stream, plus the
  // invariant checker. Violations left in the checker abort the process
  // at scope exit.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::InvariantChecker> checker;
  if (checked) {
    injector = std::make_unique<fault::FaultInjector>(
        &cluster, BuildFaultPlan(config), Rng(config.seed, 777));
    fault::InvariantChecker::Options chk;
    chk.scheme = config.kind;
    chk.ownership =
        two_tier ? &two_tier->ownership() : built.ownership.get();
    chk.quorum = built.quorum;
    chk.two_tier = two_tier.get();
    chk.check_interval = SimTime::Seconds(config.sim_seconds / 20);
    chk.trace_fn = [inj = injector.get()]() {
      return inj->AppliedLogString();
    };
    checker = std::make_unique<fault::InvariantChecker>(&cluster, chk);
  }

  obs::ChromeTraceWriter trace;
  if (!config.trace_path.empty()) {
    cluster.executor().set_trace_sink(&trace);
    if (built.lazy_group != nullptr) built.lazy_group->set_trace_sink(&trace);
    if (lazy_master != nullptr) lazy_master->set_trace_sink(&trace);
    if (injector != nullptr) {
      injector->set_observer([&trace](SimTime t, const std::string& entry) {
        trace.OnFault(t, entry);
      });
    }
  }
  obs::TimeSeriesRecorder recorder(&cluster.runtime(), &cluster.metrics());
  if (!config.report_path.empty()) {
    recorder.TrackRate("txn.committed");
    recorder.TrackRate("replica.applied");
    recorder.TrackRate("net.delivered");
    recorder.Track("invariant.violations");
    recorder.Start();
  }
  if (checked) {
    injector->Arm();
    checker->Arm();
  }

  SimOutcome outcome;
  if (two_tier) {
    RunTwoTierWindow(*two_tier, config, &outcome);
  } else {
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
    WorkloadDriver driver(&cluster, built.scheme.get(), dopts);
    driver.Run();
    // The window's counts, read before any drain. The cluster counted
    // nothing before the window, so each cell holds the window's count.
    const obs::MetricsRegistry& m = cluster.metrics();
    outcome.submitted = driver.submitted();
    outcome.committed = cluster.executor().committed();
    outcome.deadlocks = cluster.executor().deadlocked();
    outcome.waits = m.Get("lock.waits");
    outcome.reconciliations = built.lazy_group != nullptr
                                  ? built.lazy_group->reconciliations()
                                  : m.Get("replica.conflicts");
    outcome.unavailable = m.Get("scheme.unavailable");
    outcome.replica_deadlocks = m.Get("replica.deadlocks");
    outcome.replica_applied = m.Get("replica.applied");
    outcome.divergent_slots = cluster.DivergentSlots();
  }
  outcome.seconds = config.sim_seconds;
  recorder.Stop();

  if (checked) {
    // Heal, drain, then anti-entropy. Pending batch windows are bounded
    // staleness, not loss: ship them before the convergence check,
    // like any other in-flight traffic.
    checker->Disarm();
    injector->Disarm();
    injector->HealAll();
    runtime::Runtime& rt = cluster.runtime();
    if (built.lazy_group != nullptr) built.lazy_group->FlushAllBatches();
    if (lazy_master != nullptr) lazy_master->FlushAllBatches();
    rt.Run();
    if (two_tier) {
      // Cycle each mobile so any reprocessing stalled by a crashed host
      // retries now that the world is healed.
      for (NodeId m : two_tier->MobileIds()) {
        two_tier->Disconnect(m);
        two_tier->Connect(m);
      }
      rt.Run();
    }
    if (lazy_master != nullptr) lazy_master->CatchUpAll();
    if (built.quorum != nullptr) built.quorum->CatchUpAll();
    rt.Run();
    // Convergence, or recorded delusion for lazy-group, and the
    // two-tier ledger.
    checker->CheckFinal();
    outcome.violations = checker->violations_total();
    outcome.delusion_slots = checker->delusion_slots();
    outcome.injected_drops = injector->injected_drops();
    outcome.injected_duplicates = injector->injected_duplicates();
    outcome.injected_delays = injector->injected_delays();
    outcome.fault_log = injector->AppliedLogString();
  }

  if (two_tier) {
    // Two-tier counts the whole run, drain included.
    outcome.committed = cluster.executor().committed();
    outcome.deadlocks = cluster.executor().deadlocked();
    outcome.unavailable = cluster.metrics().Get("scheme.unavailable");
    outcome.reconciliations = cluster.metrics().Get("replica.conflicts");
    outcome.converged = two_tier->BaseTierConverged();
    outcome.tentative_submitted = two_tier->tentative_submitted();
    outcome.base_committed = two_tier->base_committed();
    outcome.base_rejected = two_tier->base_rejected();
  } else {
    outcome.converged = cluster.Converged();
  }
  if (lazy_master != nullptr) {
    outcome.catch_up_objects = lazy_master->catch_up_objects();
  }
  if (built.quorum != nullptr) {
    outcome.catch_up_objects = built.quorum->catch_up_objects();
  }
  const BatchShipper* shipper = nullptr;
  if (built.lazy_group != nullptr) shipper = built.lazy_group->batch_shipper();
  if (lazy_master != nullptr) shipper = lazy_master->batch_shipper();
  if (shipper != nullptr) {
    outcome.batches_shipped = shipper->batches_shipped();
    outcome.updates_coalesced = shipper->updates_coalesced();
  }
  outcome.net_dropped = cluster.net().messages_dropped();
  outcome.net_duplicated = cluster.net().messages_duplicated();
  outcome.net_held = cluster.net().messages_held();
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
    // so the runtime's counters are final before the snapshot below.
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

  if (!config.trace_path.empty() && !trace.WriteFile(config.trace_path)) {
    std::fprintf(stderr, "run: cannot write trace to %s\n",
                 config.trace_path.c_str());
  }
  if (!config.report_path.empty()) {
    WriteReportFile(config, outcome, recorder.Series(), checker.get());
  }
  return outcome;
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

std::uint64_t SimOutcome::Fingerprint() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = FnvMix(h, state_digest);
  h = FnvMix(h, submitted);
  h = FnvMix(h, committed);
  h = FnvMix(h, deadlocks);
  h = FnvMix(h, unavailable);
  h = FnvMix(h, reconciliations);
  h = FnvMix(h, delusion_slots);
  h = FnvMix(h, catch_up_objects);
  h = FnvMix(h, violations);
  h = FnvMix(h, net_dropped);
  h = FnvMix(h, net_duplicated);
  h = FnvMix(h, net_held);
  h = FnvMix(h, injected_drops);
  h = FnvMix(h, injected_duplicates);
  h = FnvMix(h, injected_delays);
  h = FnvMix(h, converged ? 1 : 0);
  h = FnvMix(h, tentative_submitted);
  h = FnvMix(h, base_committed);
  h = FnvMix(h, base_rejected);
  return h;
}

std::string SimOutcome::ToString() const {
  return StrPrintf(
      "SimOutcome{digest=%016llx submitted=%llu committed=%llu "
      "unavailable=%llu reconciliations=%llu delusion=%llu violations=%llu "
      "dropped=%llu dup=%llu held=%llu converged=%d}",
      (unsigned long long)state_digest, (unsigned long long)submitted,
      (unsigned long long)committed, (unsigned long long)unavailable,
      (unsigned long long)reconciliations, (unsigned long long)delusion_slots,
      (unsigned long long)violations, (unsigned long long)net_dropped,
      (unsigned long long)net_duplicated, (unsigned long long)net_held,
      converged ? 1 : 0);
}

}  // namespace tdr
