// Property test over random fault plans: for 200 random (seed, plan)
// pairs, a chaos run (a) replays bit-identically and (b) converges once
// every fault heals and the queues drain — except lazy-group, whose
// divergence must be detected and counted rather than absent.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/run_scheme.h"
#include "sim/sweep_runner.h"

namespace tdr::workload {
namespace {

constexpr int kPairs = 200;

// Scheme classes cycled across the pairs. Two-tier is exercised too,
// at a lower rate (its runs are the most expensive).
SchemeKind SchemeFor(int i) {
  if (i % 8 == 7) return SchemeKind::kTwoTier;
  switch (i % 5) {
    case 0: return SchemeKind::kEagerGroup;
    case 1: return SchemeKind::kEagerMaster;
    case 2: return SchemeKind::kQuorum;
    case 3: return SchemeKind::kLazyMaster;
    default: return SchemeKind::kLazyGroup;
  }
}

SimConfig ConfigFor(int i) {
  SimConfig cfg;
  cfg.kind = SchemeFor(i);
  cfg.nodes = 4;
  cfg.db_size = 32;
  cfg.tps = 5;
  cfg.action_time = 0.001;
  cfg.sim_seconds = 10;
  cfg.seed = sim::DeriveSeed(0xfa017ULL, static_cast<std::uint64_t>(i));
  cfg.check_invariants = true;
  // The plan's own randomness comes from a stream derived from the same
  // pair index, so pair i is fully reproducible in isolation.
  Rng plan_rng(cfg.seed, 31);
  cfg.plan = fault::FaultPlan::Random(&plan_rng, cfg.nodes,
                                      SimTime::Seconds(cfg.sim_seconds));
  return cfg;
}

TEST(FaultPropertyTest, RandomPlansReplayIdenticallyAndConverge) {
  sim::SweepRunner runner;
  runner.Run(kPairs, [](std::size_t i) {
    SimConfig cfg = ConfigFor(static_cast<int>(i));
    ASSERT_TRUE(cfg.plan.EndsHealed()) << cfg.plan.ToString();

    SimOutcome first = RunScheme(cfg);
    SimOutcome second = RunScheme(cfg);

    // (a) bit-identical replay from (seed, plan).
    EXPECT_EQ(first.Fingerprint(), second.Fingerprint())
        << "pair " << i << " plan:\n" << cfg.plan.ToString()
        << "\nfirst:  " << first.ToString()
        << "\nsecond: " << second.ToString();
    EXPECT_EQ(first.state_digest, second.state_digest);
    EXPECT_EQ(first.fault_log, second.fault_log);

    // (b) post-heal guarantees per scheme class.
    if (cfg.kind == SchemeKind::kLazyGroup) {
      // Divergence, if any, must have been detected (recorded as
      // delusion) — never silent.
      EXPECT_EQ(first.violations, 0u) << first.ToString();
      if (!first.converged) {
        EXPECT_GT(first.delusion_slots, 0u) << first.ToString();
      }
    } else {
      EXPECT_EQ(first.violations, 0u)
          << "pair " << i << " (" << SchemeKindName(cfg.kind)
          << ") plan:\n" << cfg.plan.ToString() << "\n" << first.ToString()
          << "\nfaults:\n" << first.fault_log;
      EXPECT_TRUE(first.converged)
          << "pair " << i << " (" << SchemeKindName(cfg.kind)
          << ") plan:\n" << cfg.plan.ToString() << "\n" << first.ToString();
    }
  });
}

}  // namespace
}  // namespace tdr::workload
