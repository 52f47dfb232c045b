// E15 — the real-threads runtime vs the sim oracle. Runs every scheme
// configuration on both backends for a spread of seeds, checks that
// the final state digests are bit-identical (the differential suite's
// property, re-verified in the bench artifact), and reports what the
// thread backend costs: events dispatched across threads, wall-clock
// per sim-second, worker utilization (profile section).
//
// The report rows carry the digests as hex strings;
// tools/diff_digests.py re-checks the cross-backend equality from the
// JSON alone, so CI validates the property end-to-end through the
// artifact pipeline. A mismatch also fails THIS binary (nonzero exit).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

const char* BackendName(RuntimeBackend backend) {
  return backend == RuntimeBackend::kThreads ? "threads" : "sim";
}

SimConfig Config(SchemeKind kind, std::uint64_t seed, RuntimeBackend backend) {
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
  c.backend = backend;
  c.drain = true;
  c.run_invariant_checker = true;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 16;
  }
  return c;
}

/// The faulted rows: same workload under a crash/restart of the last
/// node with WAL group-commit durability — the recovery path's digests
/// must ALSO be bit-identical across backends. Rows carry fault_plan
/// ("crash") so diff_digests.py groups them apart from the clean rows.
SimConfig FaultedConfig(SchemeKind kind, std::uint64_t seed,
                        RuntimeBackend backend) {
  SimConfig c = Config(kind, seed, backend);
  c.fault_crash_cycle = true;
  c.durability = DurabilityMode::kGroup;
  return c;
}

obs::Json RuntimeRow(const SimConfig& config, const SimOutcome& out) {
  obs::Json row = ReportRow(config, out);
  row.Set("backend", BackendName(config.backend));
  row.Set("state_digest", Hex(out.state_digest));
  obs::Json shards = obs::Json::Array();
  for (std::uint64_t d : out.shard_digests) shards.Push(Hex(d));
  row.Set("shard_digests", std::move(shards));
  if (config.backend == RuntimeBackend::kThreads) {
    row.Set("runtime_dispatched", out.runtime_dispatched);
    // Nondeterministic wall-clock cost — reported, never compared.
    row.Set("wall_sim_ratio", out.wall_sim_ratio);
  }
  return row;
}

}  // namespace

int Main() {
  PrintBanner("E15", "Real-threads runtime vs the sim oracle",
              "post-paper engineering: sim-as-oracle differential check");

  constexpr SchemeKind kAll[] = {
      SchemeKind::kEagerGroup, SchemeKind::kEagerGroupParallel,
      SchemeKind::kEagerGroupReadLocks, SchemeKind::kEagerMaster,
      SchemeKind::kLazyGroup, SchemeKind::kLazyMaster,
  };

  SimConfig base = Config(kAll[0], kSeeds[0], RuntimeBackend::kSim);
  obs::RunReport report = MakeReport("bench_runtime", base);
  report.SetConfig("backends", "sim,threads");
  report.SetConfig("seeds", static_cast<std::uint64_t>(std::size(kSeeds)));

  std::printf("%22s | %5s | %10s | %16s | %8s | %9s\n", "scheme", "seed",
              "commit/s", "state digest", "dispatch", "wall/sim");
  std::printf("-----------------------+-------+------------+---------------"
              "---+----------+----------\n");

  std::uint64_t mismatches = 0;
  for (SchemeKind kind : kAll) {
    for (std::uint64_t seed : kSeeds) {
      // The sim oracle runs in the parallel sweep pool; the thread
      // backend run spins up its own workers, so it runs by itself.
      SimOutcome sim_out = RunScheme(Config(kind, seed, RuntimeBackend::kSim));
      SimOutcome thr_out =
          RunScheme(Config(kind, seed, RuntimeBackend::kThreads));
      bool equal = sim_out.state_digest == thr_out.state_digest &&
                   sim_out.shard_digests == thr_out.shard_digests &&
                   sim_out.committed == thr_out.committed;
      if (!equal) ++mismatches;
      std::printf("%22s | %5llu | %10.2f | %16s | %8llu | %8.3f%s\n",
                  std::string(SchemeKindName(kind)).c_str(),
                  (unsigned long long)seed, thr_out.Rate(thr_out.committed),
                  Hex(thr_out.state_digest).c_str(),
                  (unsigned long long)thr_out.runtime_dispatched,
                  thr_out.wall_sim_ratio, equal ? "" : "  << MISMATCH");
      report.AddRow(
          RuntimeRow(Config(kind, seed, RuntimeBackend::kSim), sim_out));
      report.AddRow(
          RuntimeRow(Config(kind, seed, RuntimeBackend::kThreads), thr_out));
    }
  }

  // Faulted rows: crash/recovery under WAL group commit, two seeds per
  // scheme. diff_digests.py compares them within the "crash" fault
  // plan; a recovered cluster must drain to the same digests on both
  // backends.
  for (SchemeKind kind : kAll) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
      SimOutcome sim_out =
          RunScheme(FaultedConfig(kind, seed, RuntimeBackend::kSim));
      SimOutcome thr_out =
          RunScheme(FaultedConfig(kind, seed, RuntimeBackend::kThreads));
      bool equal = sim_out.state_digest == thr_out.state_digest &&
                   sim_out.shard_digests == thr_out.shard_digests &&
                   sim_out.committed == thr_out.committed;
      if (!equal) ++mismatches;
      std::printf("%22s | %5llu | %10.2f | %16s | %8llu | crash+wal%s\n",
                  std::string(SchemeKindName(kind)).c_str(),
                  (unsigned long long)seed, thr_out.Rate(thr_out.committed),
                  Hex(thr_out.state_digest).c_str(),
                  (unsigned long long)thr_out.runtime_dispatched,
                  equal ? "" : "  << MISMATCH");
      report.AddRow(
          RuntimeRow(FaultedConfig(kind, seed, RuntimeBackend::kSim),
                     sim_out));
      report.AddRow(
          RuntimeRow(FaultedConfig(kind, seed, RuntimeBackend::kThreads),
                     thr_out));
    }
  }

  std::printf(
      "\n%llu mismatches across %zu (scheme, seed) pairs x 2 backends.\n"
      "The thread backend executes the identical virtual-time event\n"
      "order (turn-based over per-node worker threads), so every digest\n"
      "column above must match the sim oracle's bit for bit.\n",
      (unsigned long long)mismatches,
      std::size(kAll) * (std::size(kSeeds) + 2));

  WriteReport(report, "BENCH_runtime.json");
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %llu digest mismatches\n",
                 (unsigned long long)mismatches);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }
