// E14 — hot-path cost per committed transaction.
//
// The paper's scale argument is quantitative, so the simulator's own
// per-transaction constant factors bound how far the sweeps can scale.
// This bench counts one of those constants exactly for every scheme
// class: heap allocations (and bytes) per committed transaction, over a
// steady-state window that starts after a warmup run has filled the
// pools. Wall-clock time is perfbench's job (perfbench/README.md).
//
// Allocation counting comes from util/alloc_audit.h: this binary links
// tdr_alloc_audit, which replaces global operator new/delete with
// counting versions. The EXPERIMENTS.md E14 table and the
// alloc-regression gate (tests/alloc_audit_test) both key off the
// numbers reported here; BENCH_hot_path.json is schema-checked in CI.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/run_report.h"
#include "replication/driver.h"
#include "replication/scheme_factory.h"
#include "util/alloc_audit.h"

namespace tdr::bench {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kDbSize = 10000;
constexpr double kTpsPerNode = 120;
constexpr std::uint32_t kActions = 4;
constexpr double kActionTime = 0.005;  // 5 ms
constexpr double kMeasureSeconds = 20;

struct HotConfig {
  const char* name;
  SchemeKind kind;
  /// Lazy kinds: ship in 50 ms windows instead of per commit.
  bool batched = false;
  /// Marks the row EXPERIMENTS.md E14 highlights (batched lazy group).
  /// A label only: no check reads it.
  bool headline = false;
};

struct HotResult {
  std::uint64_t committed = 0;
  std::uint64_t deadlocks = 0;
  double sim_rate = 0;             // committed / sim-second
  double allocs_per_committed = 0;
  double bytes_per_committed = 0;
};

HotResult RunHot(const HotConfig& config) {
  Cluster::Options copts;
  copts.num_nodes = kNodes;
  copts.db_size = kDbSize;
  copts.action_time = SimTime::Seconds(kActionTime);
  copts.seed = 42;
  Cluster cluster(copts);

  BatchShipper::Options batch{SimTime::Zero(), 0, true};  // per commit
  if (config.batched) batch = {SimTime::Millis(50), 128, true};
  ClusterScheme built = MakeScheme(&cluster, config.kind, batch);

  WorkloadDriver::Options dopts;
  dopts.tps_per_node = kTpsPerNode;
  dopts.workload.db_size = kDbSize;
  dopts.workload.actions = kActions;
  dopts.seconds = kMeasureSeconds;
  WorkloadDriver driver(&cluster, built.scheme.get(), dopts);

  // Warmup window: a first Run() of the same driver, so as long as the
  // measured one. It reaches open-loop steady state and fills every
  // pool (event slots, messages, lock waiters, inflight txns, batches).
  // Only the second window is measured: its counts are the registry's
  // after it minus before it.
  driver.Run();
  const Executor& executor = cluster.executor();
  const std::uint64_t committed_before = executor.committed();
  const std::uint64_t deadlocks_before = executor.deadlocked();

  // TDR_TRACE_ALLOCS=N dumps backtraces for the first N measured-window
  // allocations of every config — how to localize a regression when the
  // allocs/txn column stops reading 0.
  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    std::fprintf(stderr, "[alloc-audit] config %s\n", config.name);
    TraceNextAllocations(std::atoll(trace));
  }

  AllocScope scope;
  driver.Run();

  HotResult result;
  result.committed = executor.committed() - committed_before;
  result.deadlocks = executor.deadlocked() - deadlocks_before;
  result.sim_rate = static_cast<double>(result.committed) / kMeasureSeconds;
  if (result.committed > 0) {
    auto denom = static_cast<double>(result.committed);
    result.allocs_per_committed =
        static_cast<double>(scope.allocations()) / denom;
    result.bytes_per_committed = static_cast<double>(scope.bytes()) / denom;
  }
  return result;
}

int Main() {
  PrintBanner("E14", "Hot-path cost per committed transaction",
              "constant factors behind every sweep (ROADMAP north star)");
  if (!AllocAuditLinked()) {
    std::printf("WARNING: alloc audit hooks not linked; "
                "allocation columns will read 0\n");
  }

  const std::vector<HotConfig> configs = {
      {"eager-group", SchemeKind::kEagerGroup},
      {"lazy-group", SchemeKind::kLazyGroup},
      {"lazy-group-batched", SchemeKind::kLazyGroup, true, true},
      {"lazy-master", SchemeKind::kLazyMaster},
      {"lazy-master-batched", SchemeKind::kLazyMaster, true},
      {"quorum", SchemeKind::kQuorum},
  };

  std::printf("%-20s %10s %10s %12s %12s\n", "scheme", "committed",
              "sim tps", "allocs/txn", "bytes/txn");

  obs::RunReport report("hot_path");
  report.SetConfig("nodes", obs::Json(std::uint64_t{kNodes}))
      .SetConfig("db_size", obs::Json(std::uint64_t{kDbSize}))
      .SetConfig("tps_per_node", obs::Json(kTpsPerNode))
      .SetConfig("actions", obs::Json(std::uint64_t{kActions}))
      .SetConfig("action_time", obs::Json(kActionTime))
      // The warmup is a first Run() of the measuring driver (RunHot).
      .SetConfig("warmup_seconds", obs::Json(kMeasureSeconds))
      .SetConfig("measure_seconds", obs::Json(kMeasureSeconds))
      .SetConfig("alloc_audit_linked", obs::Json(AllocAuditLinked()));

  for (const HotConfig& config : configs) {
    HotResult r = RunHot(config);
    std::printf("%-20s %10llu %10.1f %12.2f %12.1f\n", config.name,
                static_cast<unsigned long long>(r.committed), r.sim_rate,
                r.allocs_per_committed, r.bytes_per_committed);

    obs::Json row = obs::Json::Object();
    row.Set("scheme", obs::Json(config.name));
    row.Set("headline", obs::Json(config.headline));
    row.Set("committed", obs::Json(r.committed));
    row.Set("deadlocks", obs::Json(r.deadlocks));
    row.Set("sim_committed_rate", obs::Json(r.sim_rate));
    row.Set("allocs_per_committed", obs::Json(r.allocs_per_committed));
    row.Set("bytes_per_committed", obs::Json(r.bytes_per_committed));
    report.AddRow(std::move(row));
  }

  WriteReport(report, "BENCH_hot_path.json");
  return 0;
}

}  // namespace
}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }
