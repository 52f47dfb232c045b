// The one way to build a scheme (MakeScheme) and the one way to run it
// (RunScheme).

#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "fault/run_scheme.h"
#include "replication/cluster.h"
#include "replication/scheme_factory.h"

namespace tdr {
namespace {

// Table 1's rows as the built scheme reports them, plus quorum. The
// ablations are eager-group schemes with one option flipped.
TEST(SchemeFactoryTest, BuildsTable1Rows) {
  struct Row {
    SchemeKind kind;
    std::string_view name;
    bool eager;
    bool group;
  };
  const Row rows[] = {
      {SchemeKind::kEagerGroup, "eager-group", true, true},
      {SchemeKind::kEagerGroupParallel, "eager-group", true, true},
      {SchemeKind::kEagerGroupReadLocks, "eager-group", true, true},
      {SchemeKind::kEagerMaster, "eager-master", true, false},
      {SchemeKind::kLazyGroup, "lazy-group", false, true},
      {SchemeKind::kLazyMaster, "lazy-master", false, false},
      {SchemeKind::kQuorum, "quorum-eager", true, true},
  };
  for (const Row& row : rows) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 16;
    Cluster cluster(copts);
    ClusterScheme built = MakeScheme(&cluster, row.kind);
    const std::string_view kind = SchemeKindName(row.kind);
    ASSERT_NE(built.scheme, nullptr) << kind;
    EXPECT_EQ(built.scheme->name(), row.name) << kind;
    EXPECT_EQ(built.scheme->eager(), row.eager) << kind;
    EXPECT_EQ(built.scheme->group_ownership(), row.group) << kind;
    // Master kinds get a master map; the typed handles match the kind.
    EXPECT_EQ(built.ownership != nullptr, !row.group) << kind;
    EXPECT_EQ(built.lazy_group != nullptr,
              row.kind == SchemeKind::kLazyGroup) << kind;
    EXPECT_EQ(built.lazy_master != nullptr,
              row.kind == SchemeKind::kLazyMaster) << kind;
    EXPECT_EQ(built.quorum != nullptr, row.kind == SchemeKind::kQuorum)
        << kind;
  }
}

TEST(SchemeFactoryTest, EveryKindNameRoundTrips) {
  for (int i = 0; i <= static_cast<int>(SchemeKind::kTwoTier); ++i) {
    const auto kind = static_cast<SchemeKind>(i);
    std::optional<SchemeKind> found =
        SchemeKindFromName(SchemeKindName(kind));
    ASSERT_TRUE(found.has_value()) << SchemeKindName(kind);
    EXPECT_EQ(*found, kind);
  }
  EXPECT_FALSE(SchemeKindFromName("eager").has_value());
}

// Quorum through the run lifecycle: the last node crashes for the middle
// third, so the run is checked, and after the drain the rejoined
// replica has been caught up from the surviving quorum.
TEST(RunSchemeTest, QuorumRunDrainsCheckedAndConverges) {
  SimConfig config;
  config.kind = SchemeKind::kQuorum;
  config.nodes = 4;
  config.db_size = 64;
  config.tps = 10;
  config.action_time = 0.005;
  config.sim_seconds = 10;
  config.seed = 7;
  config.fault_crash_cycle = true;
  config.check_invariants = true;
  SimOutcome out = RunScheme(config);
  EXPECT_EQ(out.violations, 0u) << out.ToString();
  EXPECT_TRUE(out.converged) << out.ToString();
  EXPECT_GT(out.catch_up_objects, 0u) << out.ToString();
  EXPECT_GT(out.committed, 0u);
}

// A run's outcome is its registry: every count in SimOutcome equals the
// cells that count the same events. Each kind MakeScheme builds (every
// kind before kTwoTier) runs E15's small configuration
// (bench/harness.cc E15Config), unchecked.
SimConfig SmallConfig(SchemeKind kind) {
  SimConfig c;
  c.kind = kind;
  c.nodes = 4;
  c.db_size = 256;
  c.tps = 25;
  c.actions = 4;
  c.action_time = 0.01;
  c.sim_seconds = 5;
  c.seed = 1;
  c.num_shards = 4;
  if (kind == SchemeKind::kLazyGroup || kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.05;
    c.batch_max_updates = 16;
  }
  return c;
}

/// Sum of the counters whose canonical name starts with `prefix`, e.g.
/// every `driver.submitted{node=*}` cell.
std::uint64_t SumCounters(const obs::MetricsSnapshot& snap,
                          std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name.compare(0, prefix.size(), prefix) == 0) sum += m.counter;
  }
  return sum;
}

/// The counts RunScheme takes after any drain, against the final
/// snapshot.
void ExpectRunCountsMatchRegistry(const SimOutcome& out) {
  const obs::MetricsSnapshot& m = out.metrics;
  EXPECT_EQ(out.net_dropped, m.Counter("net.dropped") +
                                 m.Counter("net.crash_dropped") +
                                 m.Counter("net.inbox_lost"));
  EXPECT_EQ(out.net_duplicated, m.Counter("net.duplicated"));
  EXPECT_EQ(out.net_held, m.Counter("net.held"));
  EXPECT_EQ(out.injected_drops, m.Counter("fault.injected_drops"));
  EXPECT_EQ(out.injected_duplicates, m.Counter("fault.injected_duplicates"));
  EXPECT_EQ(out.injected_delays, m.Counter("fault.injected_delays"));
  EXPECT_EQ(out.batches_shipped, SumCounters(m, "batch.shipped{"));
  EXPECT_EQ(out.updates_coalesced, SumCounters(m, "batch.coalesced{"));
  EXPECT_EQ(out.catch_up_objects,
            m.Counter("lazy_master.catch_up_objects") +
                m.Counter("quorum.catch_up_objects"));
  EXPECT_EQ(out.wal_records, m.Counter("wal.records_appended"));
  EXPECT_EQ(out.wal_flushes, m.Counter("wal.flushes"));
  EXPECT_EQ(out.wal_replayed, m.Counter("wal.recovery_replayed"));
}

// An unchecked run never drains, so its snapshot is taken at window end
// and holds the window's counts too.
TEST(RunSchemeTest, UncheckedRunCountsAreItsRegistry) {
  for (int i = 0; i < static_cast<int>(SchemeKind::kTwoTier); ++i) {
    const auto kind = static_cast<SchemeKind>(i);
    SCOPED_TRACE(SchemeKindName(kind));
    const SimOutcome out = RunScheme(SmallConfig(kind));
    const obs::MetricsSnapshot& m = out.metrics;
    EXPECT_GT(out.committed, 0u);
    EXPECT_EQ(out.committed, m.Counter("txn.committed"));
    EXPECT_EQ(out.deadlocks,
              m.Counter("txn.deadlocks") + m.Counter("txn.wait_timeouts"));
    EXPECT_EQ(out.waits, m.Counter("lock.waits"));
    EXPECT_EQ(out.unavailable, m.Counter("scheme.unavailable"));
    EXPECT_EQ(out.replica_deadlocks, m.Counter("replica.deadlocks"));
    EXPECT_EQ(out.replica_applied, m.Counter("replica.applied"));
    EXPECT_EQ(out.submitted, SumCounters(m, "driver.submitted{node="));
    EXPECT_EQ(out.reconciliations,
              m.Counter(kind == SchemeKind::kLazyGroup
                            ? "lazy_group.reconciliations"
                            : "replica.conflicts"));
    ExpectRunCountsMatchRegistry(out);
  }
}

// The last node crashes and restarts mid-window; the checked run drains
// before it counts. Every kind runs the durable-store crash model, and
// E15's six kinds also run its crash rows, under WAL group commit.
// Quorum is not among them: under WAL durability the invariant checker
// counts a crashed node's wiped store as lost votes, and its
// quorum-intersection sweep reports a violation while the node is down.
TEST(RunSchemeTest, CrashRunCountsAreItsRegistry) {
  for (int i = 0; i < static_cast<int>(SchemeKind::kTwoTier); ++i) {
    const auto kind = static_cast<SchemeKind>(i);
    SCOPED_TRACE(SchemeKindName(kind));
    SimConfig config = SmallConfig(kind);
    config.fault_crash_cycle = true;
    const SimOutcome out = RunScheme(config);
    EXPECT_GT(out.committed, 0u);
    ExpectRunCountsMatchRegistry(out);
    if (kind == SchemeKind::kQuorum) continue;
    config.durability = DurabilityMode::kGroup;
    const SimOutcome durable = RunScheme(config);
    EXPECT_GT(durable.wal_replayed, 0u);
    ExpectRunCountsMatchRegistry(durable);
  }
}

}  // namespace
}  // namespace tdr
