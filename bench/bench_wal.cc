// E16 — what durability costs, and what group commit buys back.
//
// A closed loop of 16 clients per node drives the lazy-group scheme as
// fast as commit latency allows, under the three durability modes:
//
//   off    — no log; commit completes when the last lock releases.
//   commit — one serialized simulated fsync (0.5 ms) per commit: the
//            paper-era baseline. The per-node flush pipe caps commit
//            throughput near 1/flush_latency regardless of client
//            parallelism.
//   group  — a 0.1 ms window batches concurrent commits into one
//            flush; every covered commit completes together.
//
// The headline gate: group commit must win back at least 2x of the
// throughput that per-commit durability gave up,
//
//   (off - commit) >= 2 * (off - group),
//
// else the binary exits nonzero (a perf regression in the committer is
// a test failure, not a footnote). A second section puts a real price
// on the durability line: batched appends against a file-backed WAL
// with the fsync knob off (buffered writes, the test default) vs on
// (fdatasync per flush) — the honest per-sync cost on this machine's
// storage. Results land in BENCH_wal.json (schema-checked by
// tools/report.py check in CI).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "bench/harness.h"
#include "wal/wal.h"
#include "wal/wal_file.h"

namespace tdr::bench {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kDbSize = 2048;
constexpr int kClientsPerNode = 16;
constexpr double kWarmupSeconds = 0.5;
constexpr double kMeasureSeconds = 5.0;

struct ThroughputResult {
  double committed_per_sec = 0;
  std::uint64_t committed = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_flushes = 0;
};

Cluster::Options ClusterOptions(DurabilityMode mode) {
  Cluster::Options o;
  o.num_nodes = kNodes;
  o.db_size = kDbSize;
  o.action_time = SimTime::Millis(1);
  o.seed = 42;
  o.wal.mode = mode;
  o.wal.flush_latency = SimTime::Micros(500);
  o.wal.group_window = SimTime::Micros(100);
  o.wal.group_max_records = 64;
  return o;
}

ThroughputResult MeasureThroughput(DurabilityMode mode) {
  Cluster cluster(ClusterOptions(mode));
  LazyGroupScheme scheme(&cluster);

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 2;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  const SimTime warmup_end = SimTime::Seconds(kWarmupSeconds);
  const SimTime measure_end =
      SimTime::Seconds(kWarmupSeconds + kMeasureSeconds);
  ThroughputResult result;

  // Closed loop: each client resubmits the moment its previous
  // transaction finishes (committed or aborted), so throughput tracks
  // commit LATENCY — exactly what durability changes.
  std::function<void(NodeId)> launch = [&](NodeId node) {
    gen.NextInto(rng, &scratch);
    scheme.Submit(node, scratch, [&, node](const TxnResult& txn) {
      if (txn.outcome == TxnOutcome::kCommitted &&
          cluster.sim().Now() >= warmup_end) {
        ++result.committed;
      }
      if (cluster.sim().Now() < measure_end) launch(node);
    });
  };
  for (NodeId node = 0; node < kNodes; ++node) {
    for (int c = 0; c < kClientsPerNode; ++c) launch(node);
  }
  cluster.sim().RunUntil(measure_end);

  result.committed_per_sec =
      static_cast<double>(result.committed) / kMeasureSeconds;
  if (cluster.wals() != nullptr) {
    result.wal_records = cluster.wals()->wal_metrics().records_appended.value();
    result.wal_flushes = cluster.wals()->wal_metrics().flushes.value();
  }
  return result;
}

struct FsyncRate {
  std::uint64_t records = 0;
  std::uint64_t syncs = 0;
  double wall_seconds = 0;
  double syncs_per_sec = 0;
};

/// Appends `kFsyncRecords` records to a real file-backed WAL in
/// batches of 64, completing a flush per batch; with `fsync` on every
/// flush is an fdatasync. The off/on delta is the real durability
/// price per sync on this filesystem (the simulated flush_latency in
/// E16 above models this cost in virtual time).
FsyncRate MeasureFsyncAppends(bool fsync) {
  constexpr std::uint64_t kFsyncRecords = 8192;
  constexpr std::uint64_t kFsyncBatch = 64;
  const std::string dir = "/tmp/tdr_bench_fsync_appends";
  wal::FileWalBackend backend(dir, /*num_nodes=*/1, fsync);
  wal::Wal::Options wopts;
  wal::Wal wal(0, &backend, wopts);
  wal.Open(1);

  FsyncRate rate;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1; i <= kFsyncRecords; ++i) {
    wal.Append(/*txn=*/i, /*oid=*/i % kDbSize, /*shard=*/0,
               Timestamp{i - 1, 0}, Timestamp{i, 0},
               Value(static_cast<std::int64_t>(i)));
    if (i % kFsyncBatch == 0) {
      wal.CompleteFlush(wal.BeginFlush());
      ++rate.syncs;
    }
  }
  wal.CompleteFlush(wal.BeginFlush());
  ++rate.syncs;
  const auto stop = std::chrono::steady_clock::now();
  rate.records = kFsyncRecords;
  rate.wall_seconds = std::chrono::duration<double>(stop - start).count();
  rate.syncs_per_sec =
      rate.wall_seconds > 0
          ? static_cast<double>(rate.syncs) / rate.wall_seconds
          : 0;
  return rate;
}

obs::Json ThroughputRow(DurabilityMode mode, const ThroughputResult& r) {
  obs::Json row = obs::Json::Object();
  row.Set("section", "throughput");
  row.Set("durability", DurabilityModeName(mode));
  row.Set("clients_per_node", static_cast<std::uint64_t>(kClientsPerNode));
  row.Set("nodes", static_cast<std::uint64_t>(kNodes));
  row.Set("committed", r.committed);
  row.Set("committed_per_sec", r.committed_per_sec);
  row.Set("wal_records", r.wal_records);
  row.Set("wal_flushes", r.wal_flushes);
  return row;
}

}  // namespace

int Main() {
  PrintBanner("E16", "WAL durability cost and group-commit recovery",
              "Gray et al. §2: group commit as the classic fix for "
              "log-bound commit rates");

  SimConfig describe;  // report-config snapshot of the fixed knobs
  describe.kind = SchemeKind::kLazyGroup;
  describe.nodes = kNodes;
  describe.db_size = kDbSize;
  describe.actions = 2;
  describe.action_time = 0.001;
  describe.sim_seconds = kMeasureSeconds;
  describe.durability = DurabilityMode::kGroup;
  const auto group_wal = ClusterOptions(DurabilityMode::kGroup).wal;
  obs::RunReport report = MakeReport("bench_wal", describe);
  report.SetConfig("wal_flush_latency", group_wal.flush_latency.seconds())
      .SetConfig("wal_group_window", group_wal.group_window.seconds())
      .SetConfig("wal_group_max_records",
                 static_cast<std::uint64_t>(group_wal.group_max_records))
      .SetConfig("clients_per_node",
                 static_cast<std::uint64_t>(kClientsPerNode));

  std::printf("%10s | %10s | %12s | %11s | %10s\n", "durability", "commit/s",
              "vs off", "wal records", "flushes");
  std::printf("-----------+------------+--------------+-------------+"
              "-----------\n");

  ThroughputResult results[3];
  const DurabilityMode modes[3] = {DurabilityMode::kOff,
                                   DurabilityMode::kCommit,
                                   DurabilityMode::kGroup};
  for (int i = 0; i < 3; ++i) {
    results[i] = MeasureThroughput(modes[i]);
    const double vs_off =
        results[0].committed_per_sec > 0
            ? results[i].committed_per_sec / results[0].committed_per_sec
            : 0;
    std::printf("%10s | %10.1f | %11.1f%% | %11llu | %10llu\n",
                DurabilityModeName(modes[i]), results[i].committed_per_sec,
                100 * vs_off, (unsigned long long)results[i].wal_records,
                (unsigned long long)results[i].wal_flushes);
    report.AddRow(ThroughputRow(modes[i], results[i]));
  }

  const double off = results[0].committed_per_sec;
  const double commit = results[1].committed_per_sec;
  const double group = results[2].committed_per_sec;
  const double loss_commit = off - commit;
  const double loss_group = off - group;
  const double recovered_ratio =
      loss_group > 0 ? loss_commit / loss_group : loss_commit > 0 ? 1e9 : 1;
  std::printf(
      "\nPer-commit durability loses %.1f commits/s; group commit loses "
      "%.1f.\nGroup commit recovers %.1fx of the loss (gate: >= 2x).\n",
      loss_commit, loss_group, recovered_ratio);

  report.SetConfig("group_recovered_ratio", recovered_ratio);

  // The real-fsync rows: identical append/flush traffic, buffered vs
  // fdatasync. Wall-clock columns measure this machine's storage and
  // are excluded from the regression gate.
  std::printf("\n%10s | %8s | %7s | %10s | %12s\n", "fsync", "records",
              "syncs", "wall s", "syncs/s");
  std::printf("-----------+----------+---------+------------+-------------\n");
  for (bool fsync : {false, true}) {
    const FsyncRate rate = MeasureFsyncAppends(fsync);
    std::printf("%10s | %8llu | %7llu | %10.4f | %12.0f\n",
                fsync ? "on" : "off", (unsigned long long)rate.records,
                (unsigned long long)rate.syncs, rate.wall_seconds,
                rate.syncs_per_sec);
    obs::Json row = obs::Json::Object();
    row.Set("section", "fsync_appends");
    row.Set("fsync", fsync ? "on" : "off");
    row.Set("records", rate.records);
    row.Set("syncs", rate.syncs);
    row.Set("wall_seconds", rate.wall_seconds);
    row.Set("syncs_per_sec", rate.syncs_per_sec);
    report.AddRow(std::move(row));
  }

  WriteReport(report, "BENCH_wal.json");

  if (loss_commit <= 0) {
    std::fprintf(stderr,
                 "FAIL: per-commit durability shows no throughput loss "
                 "(off=%.1f, commit=%.1f) — the bench is not exercising "
                 "the flush path\n",
                 off, commit);
    return EXIT_FAILURE;
  }
  if (recovered_ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: group commit recovered only %.2fx of the "
                 "per-commit durability loss (gate: 2x)\n",
                 recovered_ratio);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }
