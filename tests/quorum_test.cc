#include "replication/quorum.h"

#include <gtest/gtest.h>

#include <optional>

namespace tdr {
namespace {

Cluster::Options FiveNodes() {
  Cluster::Options o;
  o.num_nodes = 5;
  o.db_size = 16;
  o.action_time = SimTime::Millis(10);
  return o;
}

TEST(QuorumTest, DefaultsToMajority) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  EXPECT_EQ(scheme.total_votes(), 5u);
  EXPECT_EQ(scheme.write_quorum(), 3u);
  EXPECT_EQ(scheme.read_quorum(), 3u);
  EXPECT_TRUE(scheme.WriteQuorumAvailable());
}

TEST(QuorumTest, WriteCommitsAtQuorumOnly) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(3, 42)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  // Exactly write_quorum replicas carry the new value.
  int holders = 0;
  for (NodeId n = 0; n < 5; ++n) {
    if (cluster.node(n)->store().GetUnchecked(3).AsScalar() == 42) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 3);
}

TEST(QuorumTest, SurvivesMinorityFailure) {
  // "Eager replication systems allow updates among members of the
  // quorum" — two nodes down, still available.
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  cluster.net().SetConnected(3, false);
  cluster.net().SetConnected(4, false);
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(1, 7)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
}

TEST(QuorumTest, UnavailableBelowQuorum) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  cluster.net().SetConnected(2, false);
  cluster.net().SetConnected(3, false);
  cluster.net().SetConnected(4, false);
  EXPECT_FALSE(scheme.WriteQuorumAvailable());
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(1, 7)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kUnavailable);
  EXPECT_EQ(cluster.metrics().Get("scheme.unavailable"), 1u);
}

TEST(QuorumTest, ReadLatestSeesEveryCommittedWrite) {
  // r + w > v: a read quorum always intersects the last write quorum,
  // so ReadLatest returns the newest committed value even though some
  // replicas are stale.
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(5, 10)}), nullptr);
  cluster.sim().Run();
  scheme.Submit(4, Program({Op::Write(5, 20)}), nullptr);
  cluster.sim().Run();
  auto latest = scheme.ReadLatest(5);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->AsScalar(), 20);
}

TEST(QuorumTest, ReadUnavailableBelowReadQuorum) {
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  for (NodeId n = 2; n < 5; ++n) cluster.net().SetConnected(n, false);
  auto latest = scheme.ReadLatest(0);
  EXPECT_FALSE(latest.ok());
  EXPECT_TRUE(latest.status().IsUnavailable());
}

TEST(QuorumTest, RejoiningNodeCatchesUp) {
  // "When a node joins the quorum, the quorum sends the new node all
  // replica updates since the node was disconnected."
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  cluster.net().SetConnected(4, false);
  scheme.Submit(0, Program({Op::Write(2, 99), Op::Write(7, 11)}), nullptr);
  cluster.sim().Run();
  EXPECT_EQ(cluster.node(4)->store().GetUnchecked(2).AsScalar(), 0);
  cluster.net().SetConnected(4, true);
  // Catch-up runs synchronously in the reconnect hook.
  EXPECT_EQ(cluster.node(4)->store().GetUnchecked(2).AsScalar(), 99);
  EXPECT_EQ(cluster.node(4)->store().GetUnchecked(7).AsScalar(), 11);
  EXPECT_GE(scheme.catch_up_objects(), 2u);
  EXPECT_EQ(cluster.metrics().Get("quorum.catch_up_objects"),
            scheme.catch_up_objects());
}

TEST(QuorumTest, WeightedVotesChangeQuorumArithmetic) {
  // Gifford's weighted voting: node 0 carries 3 votes of 7 total; with
  // write quorum 5, the heavyweight node is indispensable.
  Cluster cluster(FiveNodes());
  QuorumEagerScheme::Options opts;
  opts.votes = {3, 1, 1, 1, 1};
  opts.write_quorum = 5;
  opts.read_quorum = 3;
  QuorumEagerScheme scheme(&cluster, opts);
  EXPECT_EQ(scheme.total_votes(), 7u);
  for (NodeId n = 3; n < 5; ++n) cluster.net().SetConnected(n, false);
  // Connected: nodes 0 (3) + 1 + 2 = 5 votes: available.
  EXPECT_TRUE(scheme.WriteQuorumAvailable());
  std::optional<TxnResult> result;
  scheme.Submit(0, Program({Op::Write(1, 5)}),
                [&](const TxnResult& r) { result = r; });
  cluster.sim().Run();
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  // But without the heavyweight node the four light nodes' 4 votes
  // cannot form the 5-vote write quorum.
  cluster.net().SetConnected(3, true);
  cluster.net().SetConnected(4, true);
  cluster.net().SetConnected(0, false);
  EXPECT_FALSE(scheme.WriteQuorumAvailable());
}

// Property sweep: for every (replica count, write quorum) configuration
// with sound intersection, concurrent increments are conserved and
// quorum reads see the latest value.
struct QuorumParam {
  std::uint32_t nodes;
  std::uint32_t write_quorum;
  std::uint64_t seed;
};

class QuorumPropertyTest : public ::testing::TestWithParam<QuorumParam> {};

TEST_P(QuorumPropertyTest, ConcurrentIncrementsConserved) {
  const QuorumParam& param = GetParam();
  Cluster::Options copts;
  copts.num_nodes = param.nodes;
  copts.db_size = 8;
  copts.action_time = SimTime::Millis(5);
  copts.seed = param.seed;
  Cluster cluster(copts);
  QuorumEagerScheme::Options qopts;
  qopts.write_quorum = param.write_quorum;
  qopts.read_quorum = param.nodes - param.write_quorum + 1;
  QuorumEagerScheme scheme(&cluster, qopts);
  Rng rng(param.seed);
  int committed = 0;
  for (int i = 0; i < 25; ++i) {
    NodeId origin = static_cast<NodeId>(rng.UniformInt(param.nodes));
    ObjectId oid = rng.UniformInt(8);
    cluster.sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(200))),
        [&scheme, &committed, origin, oid] {
          scheme.Submit(origin, Program({Op::Add(oid, 1)}),
                        [&committed](const TxnResult& r) {
                          if (r.outcome == TxnOutcome::kCommitted) {
                            ++committed;
                          }
                        });
        });
  }
  cluster.sim().Run();
  EXPECT_GT(committed, 0);
  std::int64_t total = 0;
  for (ObjectId oid = 0; oid < 8; ++oid) {
    auto latest = scheme.ReadLatest(oid);
    ASSERT_TRUE(latest.ok());
    total += latest->AsScalar();
  }
  EXPECT_EQ(total, committed);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuorumPropertyTest,
    ::testing::Values(QuorumParam{3, 2, 1}, QuorumParam{3, 3, 2},
                      QuorumParam{5, 3, 3}, QuorumParam{5, 4, 4},
                      QuorumParam{7, 4, 5}, QuorumParam{7, 6, 6}),
    [](const ::testing::TestParamInfo<QuorumParam>& info) {
      // Appended piecewise: GCC 12 flags `"n" + std::to_string(...)`
      // with a false -Wrestrict memcpy-overlap warning.
      std::string name = "n";
      name += std::to_string(info.param.nodes);
      name += 'w';
      name += std::to_string(info.param.write_quorum);
      name += 's';
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(QuorumTest, ConcurrentWritersSerializeThroughOverlap) {
  // Two write quorums always share a node, so concurrent writers of the
  // same object serialize on that replica's lock; after both commit,
  // ReadLatest returns the later one and the value is not lost.
  Cluster cluster(FiveNodes());
  QuorumEagerScheme scheme(&cluster);
  int committed = 0;
  for (int i = 0; i < 4; ++i) {
    scheme.Submit(static_cast<NodeId>(i), Program({Op::Add(9, 1)}),
                  [&](const TxnResult& r) {
                    if (r.outcome == TxnOutcome::kCommitted) ++committed;
                  });
  }
  cluster.sim().Run();
  auto latest = scheme.ReadLatest(9);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->AsScalar(), committed);
}

}  // namespace
}  // namespace tdr
