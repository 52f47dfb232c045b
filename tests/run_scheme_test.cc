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

}  // namespace
}  // namespace tdr
