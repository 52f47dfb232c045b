// Sim-as-oracle differential suite: the same (seed, workload, scheme)
// run on the single-threaded simulator and on the real-threads backend
// must produce IDENTICAL final state — full-state digest, every
// per-shard digest, commit/deadlock counts, and the invariant
// checker's verdict. The thread backend executes the same virtual
// (time, seq) event order, one event at a time, so equivalence is by
// construction; this suite is what keeps that construction honest for
// all six scheme configurations across a spread of seeds.
//
// tools/diff_digests.py applies the same check to bench_runtime's
// BENCH_runtime.json rows, so CI cross-checks the property twice.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

// Seeds 1..N per scheme. The default keeps the tier-1 gate fast; the
// nightly ctest entry widens the sweep via TDR_DIFF_SEEDS=200 (see
// tests/CMakeLists.txt).
std::uint64_t SeedCount() {
  if (const char* env = std::getenv("TDR_DIFF_SEEDS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 20;
}

SimConfig SmallConfig(SchemeKind kind, std::uint64_t seed,
                      RuntimeBackend backend) {
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
  // Quiesce before digesting and arm the checker: digests compare a
  // drained cluster, verdicts compare the invariant channel.
  c.drain = true;
  c.run_invariant_checker = true;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    // Exercise the batch plane (window + size cap) on both backends.
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 8;
  }
  return c;
}

class DifferentialTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(DifferentialTest, ThreadBackendMatchesSimOracle) {
  const SchemeKind kind = GetParam();
  const std::uint64_t seeds = SeedCount();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SimOutcome sim_out =
        RunScheme(SmallConfig(kind, seed, RuntimeBackend::kSim));
    SimOutcome thr_out =
        RunScheme(SmallConfig(kind, seed, RuntimeBackend::kThreads));
    SCOPED_TRACE(std::string(SchemeKindName(kind)) +
                 " seed=" + std::to_string(seed));
    // The headline: bit-identical full-state digest (values AND
    // virtual-clock timestamps on every replica)...
    EXPECT_EQ(sim_out.state_digest, thr_out.state_digest);
    // ...and every per-shard, per-node digest.
    EXPECT_EQ(sim_out.shard_digests, thr_out.shard_digests);
    // Identical execution histories, not just identical end states.
    EXPECT_EQ(sim_out.submitted, thr_out.submitted);
    EXPECT_EQ(sim_out.committed, thr_out.committed);
    EXPECT_EQ(sim_out.deadlocks, thr_out.deadlocks);
    EXPECT_EQ(sim_out.waits, thr_out.waits);
    EXPECT_EQ(sim_out.reconciliations, thr_out.reconciliations);
    EXPECT_EQ(sim_out.replica_applied, thr_out.replica_applied);
    EXPECT_EQ(sim_out.batches_shipped, thr_out.batches_shipped);
    EXPECT_EQ(sim_out.divergent_slots, thr_out.divergent_slots);
    // Invariant-checker verdicts agree (and pass) on both backends.
    EXPECT_EQ(sim_out.invariant_violations, 0u);
    EXPECT_EQ(thr_out.invariant_violations, 0u);
    EXPECT_EQ(sim_out.delusion_slots, thr_out.delusion_slots);
    // The run did real cross-thread work: every thread-backend run
    // dispatched events to workers.
    EXPECT_GT(thr_out.runtime_dispatched, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DifferentialTest,
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

// The deterministic metrics snapshots must match too — stronger than
// digests (every counter, histogram, and gauge the run recorded).
// One scheme per family keeps the runtime modest; the digest loop
// above covers all six.
TEST(DifferentialMetricsTest, SnapshotsMatchAcrossBackends) {
  for (SchemeKind kind : {SchemeKind::kEagerGroup, SchemeKind::kLazyGroup}) {
    SimConfig sim_cfg = SmallConfig(kind, /*seed=*/3, RuntimeBackend::kSim);
    SimConfig thr_cfg =
        SmallConfig(kind, /*seed=*/3, RuntimeBackend::kThreads);
    SimOutcome sim_out = RunScheme(sim_cfg);
    SimOutcome thr_out = RunScheme(thr_cfg);
    SCOPED_TRACE(SchemeKindName(kind));
    EXPECT_EQ(sim_out.metrics.ToString(), thr_out.metrics.ToString());
  }
}

}  // namespace
}  // namespace tdr::bench
