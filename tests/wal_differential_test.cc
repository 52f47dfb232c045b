// WAL crash-recovery differential suite: the same (seed, scheme,
// durability mode) run with a mid-window crash/restart of the last
// node must produce IDENTICAL drained final state on the simulator and
// real-threads backends — full-state digest, per-shard digests,
// commit/recovery counters, and a clean invariant verdict. On top of
// the backend axis it checks the STORAGE axis: the in-memory and
// file-system WAL backends must recover to the same digests (the
// simulated flush schedule is identical; only where the bytes live
// differs). The group-commit sweep also runs E15's crash rows
// (bench_runtime's configuration, seeds 1-2) on both backends.
//
// Seed depth is env-tunable: TDR_DIFF_SEEDS (default 10 here; the
// nightly ctest entry runs 200 — see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

std::uint64_t SeedCount(std::uint64_t fallback) {
  if (const char* env = std::getenv("TDR_DIFF_SEEDS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return fallback;
}

SimConfig CrashConfig(SchemeKind kind, std::uint64_t seed,
                      RuntimeBackend backend, DurabilityMode mode) {
  SimConfig c;
  c.kind = kind;
  c.nodes = 4;
  c.db_size = 96;
  c.tps = 25;
  c.actions = 4;
  c.action_time = 0.01;
  c.sim_seconds = 2;
  c.seed = seed;
  c.num_shards = 2;
  c.backend = backend;
  c.durability = mode;
  // Crash node 3 at t=2/3s, restart it at t=4/3s: commits race the
  // flush window on the way down, recovery replays the durable prefix
  // and catches up from peers on the way back.
  c.fault_crash_cycle = true;
  c.check_invariants = true;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 8;
  }
  return c;
}

/// E15's crash row on `backend`: 4 shards, DB_Size 256, 5 s, the last
/// node crashed and restarted under WAL group commit.
SimConfig E15CrashConfig(SchemeKind kind, std::uint64_t seed,
                         RuntimeBackend backend) {
  SimConfig c = E15Config(kind, seed);
  c.backend = backend;
  c.durability = DurabilityMode::kGroup;
  c.fault_crash_cycle = true;
  return c;
}

void ExpectIdentical(const SimOutcome& sim_out, const SimOutcome& thr_out) {
  EXPECT_EQ(sim_out.state_digest, thr_out.state_digest);
  EXPECT_EQ(sim_out.shard_digests, thr_out.shard_digests);
  EXPECT_EQ(sim_out.submitted, thr_out.submitted);
  EXPECT_EQ(sim_out.committed, thr_out.committed);
  EXPECT_EQ(sim_out.deadlocks, thr_out.deadlocks);
  EXPECT_EQ(sim_out.unavailable, thr_out.unavailable);
  EXPECT_EQ(sim_out.replica_applied, thr_out.replica_applied);
  EXPECT_EQ(sim_out.wal_records, thr_out.wal_records);
  EXPECT_EQ(sim_out.wal_flushes, thr_out.wal_flushes);
  EXPECT_EQ(sim_out.wal_recoveries, thr_out.wal_recoveries);
  EXPECT_EQ(sim_out.wal_replayed, thr_out.wal_replayed);
  EXPECT_EQ(sim_out.violations, 0u);
  EXPECT_EQ(thr_out.violations, 0u);
}

class WalDifferentialTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(WalDifferentialTest, CrashRecoveryMatchesSimOracle) {
  const SchemeKind kind = GetParam();
  std::vector<std::pair<SimConfig, SimConfig>> runs;
  for (std::uint64_t seed = 1; seed <= SeedCount(10); ++seed) {
    runs.emplace_back(
        CrashConfig(kind, seed, RuntimeBackend::kSim, DurabilityMode::kGroup),
        CrashConfig(kind, seed, RuntimeBackend::kThreads,
                    DurabilityMode::kGroup));
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    runs.emplace_back(E15CrashConfig(kind, seed, RuntimeBackend::kSim),
                      E15CrashConfig(kind, seed, RuntimeBackend::kThreads));
  }
  for (const auto& [sim_cfg, thr_cfg] : runs) {
    SimOutcome sim_out = RunScheme(sim_cfg);
    SimOutcome thr_out = RunScheme(thr_cfg);
    SCOPED_TRACE(std::string(SchemeKindName(kind)) + " db_size=" +
                 std::to_string(sim_cfg.db_size) +
                 " seed=" + std::to_string(sim_cfg.seed));
    ExpectIdentical(sim_out, thr_out);
    // The run exercised the machinery it claims to: records were
    // logged, the crashed node actually recovered through the WAL.
    EXPECT_GT(sim_out.wal_records, 0u);
    EXPECT_GT(sim_out.wal_flushes, 0u);
    EXPECT_EQ(sim_out.wal_recoveries, 1u);
    EXPECT_GT(thr_out.runtime_dispatched, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, WalDifferentialTest,
    ::testing::Values(SchemeKind::kEagerGroup, SchemeKind::kEagerGroupParallel,
                      SchemeKind::kEagerGroupReadLocks,
                      SchemeKind::kEagerMaster, SchemeKind::kLazyGroup,
                      SchemeKind::kLazyMaster),
    [](const ::testing::TestParamInfo<SchemeKind>& info) {
      std::string name{SchemeKindName(info.param)};
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Per-commit durability (the serialized-fsync baseline) goes through a
// different completion schedule; one scheme per family keeps it honest
// across both backends without doubling the suite's runtime.
TEST(WalDifferentialModesTest, CommitModeMatchesSimOracle) {
  for (SchemeKind kind : {SchemeKind::kEagerGroup, SchemeKind::kLazyMaster}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SimOutcome sim_out = RunScheme(CrashConfig(
          kind, seed, RuntimeBackend::kSim, DurabilityMode::kCommit));
      SimOutcome thr_out = RunScheme(CrashConfig(
          kind, seed, RuntimeBackend::kThreads, DurabilityMode::kCommit));
      SCOPED_TRACE(std::string(SchemeKindName(kind)) +
                   " seed=" + std::to_string(seed));
      ExpectIdentical(sim_out, thr_out);
      EXPECT_EQ(sim_out.wal_recoveries, 1u);
    }
  }
}

// The storage axis: a run whose WAL lives in real files must recover
// to bit-identical state as the same run over the in-memory backend.
TEST(WalDifferentialModesTest, FileBackendMatchesMemBackend) {
  for (SchemeKind kind : {SchemeKind::kEagerMaster, SchemeKind::kLazyGroup}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SimConfig mem_cfg = CrashConfig(kind, seed, RuntimeBackend::kSim,
                                      DurabilityMode::kGroup);
      SimConfig file_cfg = mem_cfg;
      // Per process: ctest runs this binary under more than one entry.
      file_cfg.wal_dir = ::testing::TempDir() + "tdr_wal_diff_" +
                         std::string(SchemeKindName(kind)) + "_" +
                         std::to_string(seed) + "_" +
                         std::to_string(getpid());
      std::filesystem::remove_all(file_cfg.wal_dir);
      SimOutcome mem_out = RunScheme(mem_cfg);
      SimOutcome file_out = RunScheme(file_cfg);
      SCOPED_TRACE(std::string(SchemeKindName(kind)) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(mem_out.state_digest, file_out.state_digest);
      EXPECT_EQ(mem_out.shard_digests, file_out.shard_digests);
      EXPECT_EQ(mem_out.committed, file_out.committed);
      EXPECT_EQ(mem_out.wal_records, file_out.wal_records);
      EXPECT_EQ(mem_out.wal_replayed, file_out.wal_replayed);
      EXPECT_EQ(file_out.violations, 0u);
      std::filesystem::remove_all(file_cfg.wal_dir);
    }
  }
}

// Durability off under the same crash plan: the legacy model (durable
// stores, outbox-as-log) must stay bit-identical across backends too —
// the pass-through seam adds nothing.
TEST(WalDifferentialModesTest, LegacyOffModeStillMatches) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimOutcome sim_out = RunScheme(CrashConfig(
        SchemeKind::kEagerGroup, seed, RuntimeBackend::kSim,
        DurabilityMode::kOff));
    SimOutcome thr_out = RunScheme(CrashConfig(
        SchemeKind::kEagerGroup, seed, RuntimeBackend::kThreads,
        DurabilityMode::kOff));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(sim_out.state_digest, thr_out.state_digest);
    EXPECT_EQ(sim_out.shard_digests, thr_out.shard_digests);
    EXPECT_EQ(sim_out.wal_records, 0u);
    EXPECT_EQ(sim_out.wal_recoveries, 0u);
    EXPECT_EQ(sim_out.violations, 0u);
    EXPECT_EQ(thr_out.violations, 0u);
  }
}

}  // namespace
}  // namespace tdr::bench
