#include "fault/chaos_scenarios.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/acceptance.h"
#include "core/two_tier.h"
#include "fault/fault_injector.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "obs/timeseries.h"
#include "replication/driver.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "replication/quorum.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace tdr::workload {

namespace {

std::vector<NodeId> AllNodeIds(std::uint32_t n) {
  std::vector<NodeId> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

/// A scheme instance plus the typed side-handles the runner needs.
struct SchemeBundle {
  std::unique_ptr<Ownership> ownership;
  std::unique_ptr<ReplicationScheme> scheme;
  LazyMasterScheme* lazy_master = nullptr;
  LazyGroupScheme* lazy_group = nullptr;
  QuorumEagerScheme* quorum = nullptr;
};

SchemeBundle MakeScheme(Cluster* cluster, fault::SchemeClass cls) {
  SchemeBundle b;
  switch (cls) {
    case fault::SchemeClass::kEagerGroup:
      b.scheme = std::make_unique<EagerGroupScheme>(cluster);
      break;
    case fault::SchemeClass::kEagerMaster:
      b.ownership = std::make_unique<Ownership>(Ownership::RoundRobin(
          cluster->options().db_size, AllNodeIds(cluster->size())));
      b.scheme =
          std::make_unique<EagerMasterScheme>(cluster, b.ownership.get());
      break;
    case fault::SchemeClass::kQuorum: {
      auto q = std::make_unique<QuorumEagerScheme>(cluster);
      b.quorum = q.get();
      b.scheme = std::move(q);
      break;
    }
    case fault::SchemeClass::kLazyGroup: {
      auto g = std::make_unique<LazyGroupScheme>(cluster);
      b.lazy_group = g.get();
      b.scheme = std::move(g);
      break;
    }
    case fault::SchemeClass::kLazyMaster: {
      b.ownership = std::make_unique<Ownership>(Ownership::RoundRobin(
          cluster->options().db_size, AllNodeIds(cluster->size())));
      LazyMasterScheme::Options opts;
      // Under faults the refresh stream is lossy (crashes, drops); the
      // anti-entropy catch-up is what restores the paper's convergence
      // guarantee afterwards.
      opts.reconnect_catch_up = true;
      auto m = std::make_unique<LazyMasterScheme>(cluster, b.ownership.get(),
                                                  opts);
      b.lazy_master = m.get();
      b.scheme = std::move(m);
      break;
    }
    case fault::SchemeClass::kTwoTier:
      std::abort();  // handled by RunChaosTwoTier
  }
  return b;
}

obs::Json InvariantSummaryJson(const ChaosOutcome& out) {
  obs::Json inv = obs::Json::Object();
  inv.Set("violations", out.violations);
  inv.Set("delusion_slots", out.delusion_slots);
  inv.Set("converged", out.converged);
  obs::Json list = obs::Json::Array();
  for (const fault::Violation& v : out.violation_list) {
    obs::Json item = obs::Json::Object();
    item.Set("invariant", v.invariant);
    item.Set("detail", v.detail);
    item.Set("at_seconds", v.at.seconds());
    list.Push(std::move(item));
  }
  inv.Set("violation_list", std::move(list));
  return inv;
}

/// Writes the trace (if requested) and the RunReport (if requested) for
/// a finished chaos run. Shared by the cluster and two-tier runners.
void EmitChaosArtifacts(const ChaosConfig& cfg, const ChaosOutcome& out,
                        const obs::ChromeTraceWriter& trace,
                        const obs::TimeSeries& series) {
  if (!cfg.trace_path.empty() && !trace.WriteFile(cfg.trace_path)) {
    std::fprintf(stderr, "chaos: cannot write trace to %s\n",
                 cfg.trace_path.c_str());
  }
  if (cfg.report_path.empty()) return;
  obs::RunReport report("chaos");
  report.SetConfig("scheme", fault::SchemeClassName(cfg.scheme))
      .SetConfig("num_nodes", static_cast<std::uint64_t>(cfg.num_nodes))
      .SetConfig("db_size", cfg.db_size)
      .SetConfig("tps_per_node", cfg.tps_per_node)
      .SetConfig("seconds", cfg.seconds)
      .SetConfig("seed", cfg.seed)
      .SetConfig("action_time_us",
                 static_cast<std::int64_t>(cfg.action_time.micros()));
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
  report.SetInvariants(InvariantSummaryJson(out));
  if (!report.WriteFile(cfg.report_path)) {
    std::fprintf(stderr, "chaos: cannot write report to %s\n",
                 cfg.report_path.c_str());
  }
}

void FillNetAndFaultStats(const fault::FaultInjector& injector,
                          ChaosOutcome* out) {
  out->injected_drops = injector.injected_drops();
  out->injected_duplicates = injector.injected_duplicates();
  out->injected_delays = injector.injected_delays();
  out->fault_log = injector.AppliedLogString();
}

ChaosOutcome RunChaosCluster(const ChaosConfig& cfg) {
  Cluster::Options copts;
  copts.num_nodes = cfg.num_nodes;
  copts.db_size = cfg.db_size;
  copts.action_time = cfg.action_time;
  copts.seed = cfg.seed;
  Cluster cluster(copts);

  SchemeBundle bundle = MakeScheme(&cluster, cfg.scheme);

  // Dedicated RNG stream: fault draws never perturb workload draws.
  fault::FaultInjector injector(&cluster, cfg.plan, Rng(cfg.seed, 777));
  fault::InvariantChecker::Options chk;
  chk.scheme = cfg.scheme;
  chk.ownership = bundle.ownership.get();
  chk.quorum = bundle.quorum;
  chk.check_interval = cfg.check_interval;
  chk.trace_fn = [&injector]() { return injector.AppliedLogString(); };
  fault::InvariantChecker checker(&cluster, chk);

  obs::ChromeTraceWriter trace;
  if (!cfg.trace_path.empty()) {
    cluster.executor().set_trace_sink(&trace);
    if (bundle.lazy_group != nullptr) bundle.lazy_group->set_trace_sink(&trace);
    if (bundle.lazy_master != nullptr) {
      bundle.lazy_master->set_trace_sink(&trace);
    }
    injector.set_observer([&trace](SimTime t, const std::string& entry) {
      trace.OnFault(t, entry);
    });
  }
  obs::TimeSeriesRecorder recorder(&cluster.sim(), &cluster.metrics());
  if (!cfg.report_path.empty()) {
    recorder.TrackRate("txn.committed");
    recorder.TrackRate("replica.applied");
    recorder.TrackRate("net.delivered");
    recorder.Track("invariant.violations");
    recorder.Start();
  }

  injector.Arm();
  checker.Arm();

  WorkloadDriver::Options dopts;
  dopts.tps_per_node = cfg.tps_per_node;
  dopts.seconds = cfg.seconds;
  WorkloadDriver driver(&cluster, bundle.scheme.get(), dopts);
  WorkloadDriver::Outcome window = driver.Run();
  recorder.Stop();

  // Heal the world, drain every queue, then run the schemes'
  // anti-entropy so convergence checks see steady state.
  checker.Disarm();
  injector.Disarm();
  injector.HealAll();
  cluster.sim().Run();
  if (bundle.lazy_master != nullptr) bundle.lazy_master->CatchUpAll();
  if (bundle.quorum != nullptr) bundle.quorum->CatchUpAll();
  cluster.sim().Run();
  checker.CheckFinal();

  ChaosOutcome out;
  out.submitted = window.submitted;
  out.committed = window.committed;
  out.deadlocks = window.deadlocks;
  out.unavailable = window.unavailable;
  out.reconciliations = bundle.lazy_group != nullptr
                            ? bundle.lazy_group->reconciliations()
                            : cluster.metrics().Get("replica.conflicts");
  out.delusion_slots = checker.delusion_slots();
  out.catch_up_objects =
      bundle.lazy_master != nullptr  ? bundle.lazy_master->catch_up_objects()
      : bundle.quorum != nullptr     ? bundle.quorum->catch_up_objects()
                                     : 0;
  out.violations = checker.violations_total();
  out.violation_list = checker.TakeViolations();
  out.net_dropped = cluster.net().messages_dropped();
  out.net_duplicated = cluster.net().messages_duplicated();
  out.net_held = cluster.net().messages_held();
  out.converged = cluster.Converged();
  out.state_digest = cluster.StateDigest();
  FillNetAndFaultStats(injector, &out);
  out.metrics = cluster.metrics().Snapshot();
  EmitChaosArtifacts(cfg, out, trace, recorder.Series());
  return out;
}

ChaosOutcome RunChaosTwoTier(const ChaosConfig& cfg) {
  // Mobile nodes on top of num_nodes base nodes, and the tentative
  // transactions each mobile submits per disconnect cycle.
  constexpr std::uint32_t kNumMobile = 2;
  constexpr std::uint32_t kTentativePerCycle = 3;
  TwoTierSystem::Options topts;
  topts.num_base = cfg.num_nodes;
  topts.num_mobile = kNumMobile;
  topts.db_size = cfg.db_size;
  topts.action_time = cfg.action_time;
  topts.seed = cfg.seed;
  TwoTierSystem sys(topts);
  Cluster& cluster = sys.cluster();

  fault::FaultInjector injector(&cluster, cfg.plan, Rng(cfg.seed, 777));
  fault::InvariantChecker::Options chk;
  chk.scheme = fault::SchemeClass::kTwoTier;
  chk.ownership = &sys.ownership();
  chk.two_tier = &sys;
  chk.check_interval = cfg.check_interval;
  chk.trace_fn = [&injector]() { return injector.AppliedLogString(); };
  fault::InvariantChecker checker(&cluster, chk);

  obs::ChromeTraceWriter trace;
  if (!cfg.trace_path.empty()) {
    cluster.executor().set_trace_sink(&trace);
    sys.lazy_master().set_trace_sink(&trace);
    injector.set_observer([&trace](SimTime t, const std::string& entry) {
      trace.OnFault(t, entry);
    });
  }
  obs::TimeSeriesRecorder recorder(&cluster.sim(), &cluster.metrics());
  if (!cfg.report_path.empty()) {
    recorder.TrackRate("txn.committed");
    recorder.TrackRate("replica.applied");
    recorder.TrackRate("net.delivered");
    recorder.Track("invariant.violations");
    recorder.Start();
  }

  injector.Arm();
  checker.Arm();

  Rng rng(cfg.seed, 555);
  ProgramGenerator::Options gopts;
  gopts.db_size = cfg.db_size;
  gopts.actions = 2;
  ProgramGenerator gen(gopts);

  ChaosOutcome out;

  // Base-tier workload: one arrival series per base node.
  std::vector<sim::EventId> base_series;
  std::vector<std::shared_ptr<Rng>> base_rngs;
  SimTime gap = SimTime::Seconds(
      cfg.tps_per_node > 0 ? 1.0 / cfg.tps_per_node : cfg.seconds);
  for (NodeId b = 0; b < sys.num_base(); ++b) {
    auto brng = std::make_shared<Rng>(rng.Fork());
    base_rngs.push_back(brng);
    base_series.push_back(
        sys.sim().RepeatEvery(gap, [&sys, &gen, &out, b, brng]() {
          Program p = gen.Next(*brng);
          if (sys.cluster().node(b)->crashed()) return;
          ++out.submitted;
          sys.SubmitBase(b, p, nullptr);
        }));
  }

  // Mobile workload: four disconnect/work/reconnect cycles across the
  // window; tentative transactions are submitted while disconnected and
  // reprocessed at the base on reconnect.
  constexpr int kCycles = 4;
  double cycle = cfg.seconds / kCycles;
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

  sys.sim().RunUntil(SimTime::Seconds(cfg.seconds));
  for (sim::EventId id : base_series) sys.sim().Cancel(id);
  recorder.Stop();

  checker.Disarm();
  injector.Disarm();
  injector.HealAll();
  sys.sim().Run();
  // Final drain: cycle each mobile so any reprocessing stalled by a
  // crashed host retries now that the world is healed.
  for (NodeId m : sys.MobileIds()) {
    sys.Disconnect(m);
    sys.Connect(m);
  }
  sys.sim().Run();
  sys.lazy_master().CatchUpAll();
  sys.sim().Run();
  checker.CheckFinal();

  out.committed = cluster.executor().committed();
  out.deadlocks = cluster.executor().deadlocked();
  out.unavailable = cluster.metrics().Get("scheme.unavailable");
  out.reconciliations = cluster.metrics().Get("replica.conflicts");
  out.delusion_slots = checker.delusion_slots();
  out.catch_up_objects = sys.lazy_master().catch_up_objects();
  out.violations = checker.violations_total();
  out.violation_list = checker.TakeViolations();
  out.net_dropped = cluster.net().messages_dropped();
  out.net_duplicated = cluster.net().messages_duplicated();
  out.net_held = cluster.net().messages_held();
  out.converged = sys.BaseTierConverged();
  out.state_digest = cluster.StateDigest();
  out.tentative_submitted = sys.tentative_submitted();
  out.base_committed = sys.base_committed();
  out.base_rejected = sys.base_rejected();
  FillNetAndFaultStats(injector, &out);
  out.metrics = cluster.metrics().Snapshot();
  EmitChaosArtifacts(cfg, out, trace, recorder.Series());
  return out;
}

// --- Scenario catalog ------------------------------------------------

fault::FaultPlan PlanPartitionDuringCommit(std::uint32_t n, SimTime h) {
  std::vector<NodeId> group;
  for (NodeId i = 0; i < n / 2; ++i) group.push_back(i);
  fault::FaultPlan plan;
  plan.PartitionAt(SimTime::Seconds(h.seconds() * 0.25), "split",
                   std::move(group))
      .HealPartitionAt(SimTime::Seconds(h.seconds() * 0.60), "split");
  return plan;
}

fault::FaultPlan PlanMasterCrash(std::uint32_t n, SimTime h) {
  fault::FaultPlan plan;
  NodeId victim = n > 1 ? 1 : 0;
  plan.CrashAt(SimTime::Seconds(h.seconds() * 0.30), victim)
      .RestartAt(SimTime::Seconds(h.seconds() * 0.70), victim);
  return plan;
}

fault::FaultPlan PlanFlakyNetwork(std::uint32_t, SimTime) {
  fault::FaultPlan plan;
  fault::ChaosProfile chaos;
  chaos.drop_probability = 0.01;
  chaos.duplicate_probability = 0.01;
  chaos.delay_probability = 0.02;
  chaos.max_extra_delay = SimTime::Millis(50);
  plan.WithChaos(chaos);
  return plan;
}

fault::FaultPlan PlanDupStormReconnect(std::uint32_t, SimTime) {
  fault::FaultPlan plan;
  fault::ChaosProfile chaos;
  chaos.duplicate_probability = 0.05;
  chaos.delay_probability = 0.05;
  chaos.max_extra_delay = SimTime::Millis(20);
  plan.WithChaos(chaos);
  return plan;
}

fault::FaultPlan PlanCrashPartitionDrop(std::uint32_t n, SimTime h) {
  fault::FaultPlan plan;
  NodeId victim = n > 1 ? 1 : 0;
  std::vector<NodeId> group = {static_cast<NodeId>(n - 1)};
  fault::ChaosProfile chaos;
  chaos.drop_probability = 0.01;
  plan.CrashAt(SimTime::Seconds(h.seconds() * 0.20), victim)
      .RestartAt(SimTime::Seconds(h.seconds() * 0.55), victim)
      .PartitionAt(SimTime::Seconds(h.seconds() * 0.35), "wedge",
                   std::move(group))
      .HealPartitionAt(SimTime::Seconds(h.seconds() * 0.70), "wedge")
      .WithChaos(chaos);
  return plan;
}

}  // namespace

const std::vector<ChaosScenario>& ChaosCatalog() {
  static const std::vector<ChaosScenario> kCatalog = {
      {"partition-during-commit",
       "named partition splits the cluster mid-window, heals later",
       &PlanPartitionDuringCommit},
      {"master-crash",
       "node 1 crashes mid-propagation (volatile buffers lost), restarts "
       "with log recovery",
       &PlanMasterCrash},
      {"flaky-network",
       "always-on 1% drop + 1% duplicate + 2% delay spikes",
       &PlanFlakyNetwork},
      {"dup-storm-reconnect",
       "5% duplicate delivery + delay jitter (idempotence under redelivery)",
       &PlanDupStormReconnect},
      {"crash-partition-drop",
       "crash + one partition/heal cycle + 1% message drop (the acceptance "
       "scenario)",
       &PlanCrashPartitionDrop},
  };
  return kCatalog;
}

const ChaosScenario& FindScenario(const std::string& name) {
  for (const ChaosScenario& s : ChaosCatalog()) {
    if (name == s.name) return s;
  }
  std::fprintf(stderr, "unknown chaos scenario: %s\n", name.c_str());
  std::abort();
}

ChaosOutcome RunChaos(const ChaosConfig& config) {
  if (config.scheme == fault::SchemeClass::kTwoTier) {
    return RunChaosTwoTier(config);
  }
  return RunChaosCluster(config);
}

std::uint64_t ChaosOutcome::Fingerprint() const {
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

std::string ChaosOutcome::ToString() const {
  return StrPrintf(
      "ChaosOutcome{digest=%016llx submitted=%llu committed=%llu "
      "unavailable=%llu reconciliations=%llu delusion=%llu violations=%llu "
      "dropped=%llu dup=%llu held=%llu converged=%d}",
      (unsigned long long)state_digest, (unsigned long long)submitted,
      (unsigned long long)committed, (unsigned long long)unavailable,
      (unsigned long long)reconciliations, (unsigned long long)delusion_slots,
      (unsigned long long)violations, (unsigned long long)net_dropped,
      (unsigned long long)net_duplicated, (unsigned long long)net_held,
      converged ? 1 : 0);
}

}  // namespace tdr::workload
