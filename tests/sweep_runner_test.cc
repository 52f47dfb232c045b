// Determinism tests for the parallel sweep runner: results must be
// bit-identical regardless of thread count, and identical to a plain
// serial RunScheme of the same config.

#include "sim/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

TEST(DeriveSeedTest, StableAndWellSpread) {
  EXPECT_EQ(sim::DeriveSeed(42, 0), sim::DeriveSeed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(sim::DeriveSeed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across indices
  EXPECT_NE(sim::DeriveSeed(42, 0), sim::DeriveSeed(43, 0));
  EXPECT_NE(sim::DeriveSeed(42, 0), 42u);  // run 0 never inherits the base
}

TEST(SweepRunnerTest, MapReturnsResultsInIndexOrder) {
  sim::SweepRunner runner(sim::SweepRunner::Options{4});
  std::vector<std::size_t> out = runner.Map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunnerTest, RunVisitsEveryIndexExactlyOnce) {
  sim::SweepRunner runner(sim::SweepRunner::Options{8});
  std::vector<std::atomic<int>> visits(512);
  runner.Run(visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(SweepRunnerTest, PropagatesJobExceptions) {
  sim::SweepRunner runner(sim::SweepRunner::Options{4});
  EXPECT_THROW(runner.Run(64,
                          [](std::size_t i) {
                            if (i == 33) throw std::runtime_error("boom");
                          }),
               std::runtime_error);
}

bool Identical(const SimOutcome& a, const SimOutcome& b) {
  return a.seconds == b.seconds && a.submitted == b.submitted &&
         a.committed == b.committed && a.deadlocks == b.deadlocks &&
         a.waits == b.waits && a.reconciliations == b.reconciliations &&
         a.unavailable == b.unavailable &&
         a.replica_deadlocks == b.replica_deadlocks &&
         a.replica_applied == b.replica_applied &&
         a.divergent_slots == b.divergent_slots;
}

// The satellite seed-stability contract: one mid-size config run twice
// serially and through the sweep runner at 1 and N threads must yield
// four field-for-field identical outcomes.
TEST(SweepRunnerTest, SeedStabilityAcrossSerialAndThreadCounts) {
  SimConfig config;
  config.kind = SchemeKind::kEagerGroup;
  config.nodes = 4;
  config.db_size = 800;
  config.tps = 8;
  config.actions = 4;
  config.action_time = 0.01;
  config.sim_seconds = 60;
  config.seed = 20260806;

  SimOutcome serial_a = RunScheme(config);
  SimOutcome serial_b = RunScheme(config);

  std::vector<SimConfig> grid{config};
  const sim::SweepRunner::Options one_thread{1};
  SimOutcome swept_1 = RunSweep(grid, one_thread)[0];
  const sim::SweepRunner::Options four_threads{4};
  SimOutcome swept_n = RunSweep(grid, four_threads)[0];

  EXPECT_TRUE(Identical(serial_a, serial_b));
  EXPECT_TRUE(Identical(serial_a, swept_1));
  EXPECT_TRUE(Identical(serial_a, swept_n));
  EXPECT_GT(serial_a.committed, 0u);  // the run actually did work
}

// A whole grid (the shape the benches sweep) must come back
// element-for-element identical at different thread counts, including
// derived per-run seeds.
TEST(SweepRunnerTest, GridIdenticalAtDifferentThreadCounts) {
  std::vector<SimConfig> grid;
  for (std::uint32_t nodes : {2u, 3u, 5u}) {
    for (SchemeKind kind :
         {SchemeKind::kEagerGroup, SchemeKind::kLazyMaster}) {
      SimConfig config;
      config.kind = kind;
      config.nodes = nodes;
      config.db_size = 500;
      config.tps = 6;
      config.actions = 4;
      config.action_time = 0.01;
      config.sim_seconds = 25;
      config.seed = sim::DeriveSeed(7, grid.size());
      grid.push_back(config);
    }
  }
  const sim::SweepRunner::Options serial{1};
  const sim::SweepRunner::Options parallel{6};
  std::vector<SimOutcome> a = RunSweep(grid, serial);
  std::vector<SimOutcome> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(Identical(a[i], b[i])) << "config " << i;
  }
}

}  // namespace
}  // namespace tdr::bench
