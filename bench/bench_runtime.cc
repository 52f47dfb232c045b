// E15 — the committed digest baseline. Runs every scheme configuration
// on the sim oracle for a spread of seeds, clean and under a
// crash/restart with WAL group commit, and writes each run's final
// state digest, per-shard digests and counts to BENCH_runtime.json.
// tools/report.py regress matches a fresh run against the committed
// file exactly, so any change to a digest or count shows up there.
//
// Backend equivalence is not checked here: the differential suites
// (tests/runtime_differential_test.cc, tests/wal_differential_test.cc)
// run this configuration on both backends.

#include <cstdio>
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

/// The faulted rows: the same workload under a crash/restart of the
/// last node with WAL group-commit durability. Rows carry fault_plan
/// ("crash"), which keeps them apart from the clean rows.
SimConfig FaultedConfig(SchemeKind kind, std::uint64_t seed) {
  SimConfig c = E15Config(kind, seed);
  c.fault_crash_cycle = true;
  c.durability = DurabilityMode::kGroup;
  return c;
}

obs::Json RuntimeRow(const SimConfig& config, const SimOutcome& out) {
  obs::Json row = ReportRow(config, out);
  row.Set("state_digest", Hex(out.state_digest));
  obs::Json shards = obs::Json::Array();
  for (std::uint64_t d : out.shard_digests) shards.Push(Hex(d));
  row.Set("shard_digests", std::move(shards));
  return row;
}

void Run(const SimConfig& config, const char* plan, obs::RunReport* report) {
  const SimOutcome out = RunScheme(config);
  std::printf("%22s | %5llu | %5s | %10.2f | %16s\n",
              std::string(SchemeKindName(config.kind)).c_str(),
              (unsigned long long)config.seed, plan,
              out.Rate(out.committed), Hex(out.state_digest).c_str());
  report->AddRow(RuntimeRow(config, out));
}

}  // namespace

int Main() {
  PrintBanner("E15", "Sim digest baseline",
              "post-paper engineering: the committed digests every "
              "refactor must reproduce");

  constexpr SchemeKind kAll[] = {
      SchemeKind::kEagerGroup, SchemeKind::kEagerGroupParallel,
      SchemeKind::kEagerGroupReadLocks, SchemeKind::kEagerMaster,
      SchemeKind::kLazyGroup, SchemeKind::kLazyMaster,
  };

  obs::RunReport report = MakeReport("bench_runtime", E15Config(kAll[0], 1));
  report.SetConfig("seeds", static_cast<std::uint64_t>(std::size(kSeeds)));

  std::printf("%22s | %5s | %5s | %10s | %16s\n", "scheme", "seed", "plan",
              "commit/s", "state digest");
  std::printf("-----------------------+-------+-------+------------+-------"
              "-----------\n");

  for (SchemeKind kind : kAll) {
    for (std::uint64_t seed : kSeeds) {
      Run(E15Config(kind, seed), "none", &report);
    }
  }
  // Faulted rows: crash/recovery under WAL group commit, two seeds per
  // scheme; a recovered cluster drains to its digests like a clean one.
  for (SchemeKind kind : kAll) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
      Run(FaultedConfig(kind, seed), "crash", &report);
    }
  }

  WriteReport(report, "BENCH_runtime.json");
  return 0;
}

}  // namespace tdr::bench

int main() { return tdr::bench::Main(); }
