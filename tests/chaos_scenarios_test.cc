// The chaos scenario suite: every catalog scenario against every
// applicable scheme, with the paper's per-scheme guarantees asserted by
// the always-on invariant checker. Includes the acceptance scenario —
// crash + partition/heal + 1% drop — replayed bit-identically and run
// across SweepRunner thread counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/chaos_scenarios.h"
#include "fault/run_scheme.h"
#include "sim/sweep_runner.h"

namespace tdr::workload {
namespace {

SimConfig BaseConfig(SchemeKind kind) {
  SimConfig cfg;
  cfg.kind = kind;
  cfg.nodes = 4;
  cfg.db_size = 64;
  cfg.tps = 10;
  cfg.action_time = 0.001;
  cfg.sim_seconds = 20;
  cfg.seed = 42;
  cfg.check_invariants = true;
  return cfg;
}

SimConfig ScenarioConfig(SchemeKind kind, const std::string& name) {
  SimConfig cfg = BaseConfig(kind);
  const ChaosScenario& s = FindScenario(name);
  cfg.plan = s.plan(cfg.nodes, SimTime::Seconds(cfg.sim_seconds));
  return cfg;
}

TEST(ChaosCatalogTest, CatalogIsComplete) {
  EXPECT_GE(ChaosCatalog().size(), 5u);
  EXPECT_STREQ(FindScenario("crash-partition-drop").name,
               "crash-partition-drop");
  for (const ChaosScenario& s : ChaosCatalog()) {
    fault::FaultPlan plan = s.plan(4, SimTime::Seconds(20));
    EXPECT_TRUE(plan.EndsHealed()) << s.name;
  }
}

// --- Partition during eager commits ----------------------------------

TEST(ChaosScenarioTest, PartitionDuringEagerGroupCommit) {
  SimConfig cfg = ScenarioConfig(SchemeKind::kEagerGroup,
                                 "partition-during-commit");
  SimOutcome out = RunScheme(cfg);
  // Eager group requires all nodes: the partition window shows up as
  // unavailability, never as divergence.
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.unavailable, 0u);
  EXPECT_GT(out.committed, 0u);
}

TEST(ChaosScenarioTest, PartitionDuringQuorumCommit) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kQuorum, "partition-during-commit");
  SimOutcome out = RunScheme(cfg);
  // The majority side keeps committing; the minority side reads
  // unavailable; quorum intersection holds throughout.
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.committed, 0u);
  // Minority-side submissions could not muster a write quorum.
  EXPECT_GT(out.unavailable, 0u);
}

TEST(ChaosScenarioTest, PartitionDuringLazyMasterPropagation) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kLazyMaster, "partition-during-commit");
  SimOutcome out = RunScheme(cfg);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.committed, 0u);
}

// --- Master crash mid-propagation ------------------------------------

TEST(ChaosScenarioTest, MasterCrashMidPropagationLazyMaster) {
  SimConfig cfg = ScenarioConfig(SchemeKind::kLazyMaster, "master-crash");
  SimOutcome out = RunScheme(cfg);
  // Node 1 masters a quarter of the objects; while it is down those
  // objects are unavailable, and its replica misses updates it must
  // recover via catch-up. Convergence must still hold at the end.
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.unavailable, 0u);
  EXPECT_GT(out.committed, 0u);
}

TEST(ChaosScenarioTest, MasterCrashEagerMaster) {
  SimConfig cfg = ScenarioConfig(SchemeKind::kEagerMaster, "master-crash");
  SimOutcome out = RunScheme(cfg);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
}

TEST(ChaosScenarioTest, CrashQuorumStillMeetsQuorum) {
  SimConfig cfg = ScenarioConfig(SchemeKind::kQuorum, "master-crash");
  SimOutcome out = RunScheme(cfg);
  // 3 of 4 votes remain: writes keep committing through the crash.
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.committed, 0u);
}

// --- Lazy group under chaos: delusion is DETECTED, not absent --------

TEST(ChaosScenarioTest, LazyGroupFlakyNetworkDelusionIsDetected) {
  SimConfig cfg = ScenarioConfig(SchemeKind::kLazyGroup, "flaky-network");
  SimOutcome out = RunScheme(cfg);
  // Dropped replica updates leave stale replicas; subsequent
  // timestamp-match failures surface as reconciliations and persistent
  // divergence — the paper's system delusion, *counted* by the checker.
  EXPECT_EQ(out.violations, 0u) << out.ToString();  // detection != violation
  EXPECT_GT(out.injected_drops, 0u);
  EXPECT_GT(out.reconciliations, 0u);
  EXPECT_GT(out.delusion_slots, 0u);
  EXPECT_FALSE(out.converged);
}

// --- Duplicate delivery / reconnect storm ----------------------------

TEST(ChaosScenarioTest, LazyMasterIdempotentUnderDuplicateDelivery) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kLazyMaster, "dup-storm-reconnect");
  SimOutcome out = RunScheme(cfg);
  // Newer-wins application is idempotent: replayed slave updates are
  // stale on second delivery and ignored, so duplicates are harmless.
  EXPECT_GT(out.injected_duplicates, 0u);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
}

TEST(ChaosScenarioTest, TwoTierMobileReconnectUnderDuplicateDelivery) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kTwoTier, "dup-storm-reconnect");
  SimOutcome out = RunScheme(cfg);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  // The ledger balanced: every tentative transaction was reprocessed.
  EXPECT_GT(out.tentative_submitted, 0u);
  EXPECT_EQ(out.tentative_submitted,
            out.base_committed + out.base_rejected);
}

TEST(ChaosScenarioTest, TwoTierSurvivesBaseCrashAndPartition) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kTwoTier, "crash-partition-drop");
  SimOutcome out = RunScheme(cfg);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.tentative_submitted, 0u);
  EXPECT_EQ(out.tentative_submitted,
            out.base_committed + out.base_rejected);
}

// --- The acceptance criterion ----------------------------------------

// One seeded chaos run (crash + partition + 1% drop) must be
// bit-identical across two replays and across SweepRunner thread
// counts, with zero invariant violations for eager/lazy-master/two-tier
// and nonzero DETECTED delusion for lazy-group.
TEST(ChaosReplayTest, AcceptanceScenarioIsBitIdenticalAndInvariantClean) {
  const std::vector<SchemeKind> schemes = {
      SchemeKind::kEagerGroup, SchemeKind::kEagerMaster,
      SchemeKind::kQuorum,     SchemeKind::kLazyMaster,
      SchemeKind::kLazyGroup,  SchemeKind::kTwoTier,
  };

  auto run_all = [&](unsigned threads) {
    sim::SweepRunner runner(sim::SweepRunner::Options{.threads = threads});
    return runner.Map<std::uint64_t>(schemes.size(), [&](std::size_t i) {
      SimConfig cfg =
          ScenarioConfig(schemes[i], "crash-partition-drop");
      SimOutcome out = RunScheme(cfg);
      if (schemes[i] == SchemeKind::kLazyGroup) {
        // Delusion must be present AND detected.
        EXPECT_GT(out.reconciliations + out.delusion_slots, 0u);
        EXPECT_EQ(out.violations, 0u) << out.ToString();
      } else {
        EXPECT_EQ(out.violations, 0u)
            << SchemeKindName(schemes[i]) << ": " << out.ToString()
            << "\nfaults:\n" << out.fault_log;
        EXPECT_TRUE(out.converged) << SchemeKindName(schemes[i]);
      }
      // The scenario's drop faults actually fired for the schemes that
      // propagate over the network (eager/quorum install replica writes
      // as direct executor steps — no messages to drop).
      if (schemes[i] == SchemeKind::kLazyMaster ||
          schemes[i] == SchemeKind::kLazyGroup ||
          schemes[i] == SchemeKind::kTwoTier) {
        EXPECT_GT(out.injected_drops, 0u) << SchemeKindName(schemes[i]);
      }
      return out.Fingerprint();
    });
  };

  std::vector<std::uint64_t> serial = run_all(1);
  std::vector<std::uint64_t> replay = run_all(1);
  std::vector<std::uint64_t> parallel = run_all(4);
  EXPECT_EQ(serial, replay);    // bit-identical replay
  EXPECT_EQ(serial, parallel);  // independent of thread count
}

TEST(ChaosReplayTest, DifferentSeedsDiverge) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kLazyMaster, "crash-partition-drop");
  SimOutcome a = RunScheme(cfg);
  cfg.seed = 43;
  SimOutcome b = RunScheme(cfg);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ChaosReplayTest, FaultLogIsReplayedVerbatim) {
  SimConfig cfg =
      ScenarioConfig(SchemeKind::kEagerGroup, "crash-partition-drop");
  SimOutcome a = RunScheme(cfg);
  SimOutcome b = RunScheme(cfg);
  EXPECT_FALSE(a.fault_log.empty());
  EXPECT_EQ(a.fault_log, b.fault_log);
}

}  // namespace
}  // namespace tdr::workload
