// Determinism contract for the sharded + batched data plane: for the
// same (seed, config) a batched run is bit-identical across replays and
// SweepRunner thread counts — at every batch-window setting — and
// batches interleaved with fault injection (drops, duplication windows,
// partitions) keep the invariant checker green.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/run_report.h"

namespace tdr::bench {
namespace {

SimConfig BatchedConfig(double window) {
  SimConfig config;
  config.kind = SchemeKind::kLazyGroup;
  config.nodes = 4;
  config.db_size = 256;
  config.num_shards = 8;
  config.tps = 10;
  config.actions = 3;
  config.action_time = 0.005;
  config.sim_seconds = 10;
  config.hot_shards = 1;
  config.hot_fraction = 0.5;
  config.batch_flush_window = window;
  if (window > 0) config.batch_max_updates = 64;
  return config;
}

// Every batch-window setting, swept serially and in parallel: the
// outcome counters and full metrics registries must match byte for
// byte. The flush events are ordinary simulator events, so batching
// must not perturb the deterministic schedule contract.
TEST(BatchDeterminismTest, BitIdenticalAcrossWindowsAndThreadCounts) {
  std::vector<SimConfig> grid;
  for (double window : {0.0, 0.05, 0.2}) {
    grid.push_back(BatchedConfig(window));
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  std::vector<SimOutcome> a = RunSweep(grid, serial);
  std::vector<SimOutcome> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].committed, b[i].committed) << "window run " << i;
    EXPECT_EQ(a[i].replica_applied, b[i].replica_applied) << "run " << i;
    EXPECT_EQ(a[i].batches_shipped, b[i].batches_shipped) << "run " << i;
    EXPECT_EQ(a[i].updates_coalesced, b[i].updates_coalesced) << "run " << i;
    EXPECT_EQ(obs::RunReport::MetricsToJson(a[i].metrics).Dump(),
              obs::RunReport::MetricsToJson(b[i].metrics).Dump())
        << "run " << i;
    EXPECT_EQ(ReportRow(grid[i], a[i]).Dump(), ReportRow(grid[i], b[i]).Dump())
        << "run " << i;
  }
}

TEST(BatchDeterminismTest, ReplayIsBitIdentical) {
  SimConfig config = BatchedConfig(0.1);
  SimOutcome first = RunScheme(config);
  SimOutcome second = RunScheme(config);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.batches_shipped, second.batches_shipped);
  EXPECT_EQ(first.updates_coalesced, second.updates_coalesced);
  EXPECT_EQ(obs::RunReport::MetricsToJson(first.metrics).Dump(),
            obs::RunReport::MetricsToJson(second.metrics).Dump());
}

// The batch window actually engages in these runs (otherwise the suite
// would vacuously pass with per-commit shipping): it coalesces, and it
// ships fewer batches than the per-commit run, which ships one per
// commit per destination and never coalesces.
TEST(BatchDeterminismTest, BatchedRunsShipAndCoalesce) {
  SimOutcome out = RunScheme(BatchedConfig(0.2));
  EXPECT_GT(out.batches_shipped, 0u);
  EXPECT_GT(out.updates_coalesced, 0u);
  SimOutcome plain = RunScheme(BatchedConfig(0.0));
  EXPECT_EQ(plain.updates_coalesced, 0u);
  EXPECT_GT(plain.batches_shipped, out.batches_shipped);
}

// Fault injection interleaved with batching: drops and a partition
// cycle while batches are in flight. The harness arms the invariant
// checker; the run must finish with zero violations and converge after
// the heal + flush + catch-up drain, for both lazy schemes.
TEST(BatchDeterminismTest, FaultedBatchedRunsKeepInvariantsGreen) {
  for (SchemeKind kind : {SchemeKind::kLazyGroup, SchemeKind::kLazyMaster}) {
    SimConfig config = BatchedConfig(0.1);
    config.kind = kind;
    config.fault_drop_probability = 0.05;
    config.fault_partition_cycle = true;
    SimOutcome out = RunScheme(config);
    // The green gate is the checker's CheckFinal after heal + batch
    // flush + catch-up (divergent_slots is sampled at the horizon,
    // mid-faults, so it is legitimately nonzero here).
    EXPECT_EQ(out.violations, 0u) << SchemeKindName(kind);
    EXPECT_GT(out.committed, 0u) << SchemeKindName(kind);
    EXPECT_GT(out.batches_shipped, 0u) << SchemeKindName(kind);
  }
}

// Faulted + batched runs are themselves replayable: the fault RNG
// stream is derived from the seed, so the whole (faults, batches,
// retries) interleaving is part of the deterministic schedule.
TEST(BatchDeterminismTest, FaultedBatchedReplayIsBitIdentical) {
  SimConfig config = BatchedConfig(0.1);
  config.fault_drop_probability = 0.1;
  config.fault_partition_cycle = true;
  SimOutcome first = RunScheme(config);
  SimOutcome second = RunScheme(config);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.injected_drops, second.injected_drops);
  EXPECT_EQ(first.batches_shipped, second.batches_shipped);
  EXPECT_EQ(obs::RunReport::MetricsToJson(first.metrics).Dump(),
            obs::RunReport::MetricsToJson(second.metrics).Dump());
}

}  // namespace
}  // namespace tdr::bench
