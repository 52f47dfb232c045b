#include "bench/harness.h"

#include "util/logging.h"

namespace tdr::bench {

analytic::ModelParams ToModelParams(const SimConfig& config) {
  analytic::ModelParams p;
  p.db_size = static_cast<double>(config.db_size);
  p.nodes = config.nodes;
  p.tps = config.tps;
  p.actions = config.actions;
  p.action_time = config.action_time;
  return p;
}

std::vector<SimOutcome> RunSweep(const std::vector<SimConfig>& configs,
                                 sim::SweepRunner::Options options) {
  sim::SweepRunner runner(options);
  return runner.Map<SimOutcome>(
      configs.size(), [&](std::size_t i) { return RunScheme(configs[i]); });
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
  c.check_invariants = true;
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
