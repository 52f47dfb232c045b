// Property-based tests: invariants that must hold for every replication
// scheme across a sweep of cluster shapes, workloads, and seeds
// (parameterized via TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <memory>

#include "replication/cluster.h"
#include "replication/scheme_factory.h"
#include "workload/workload.h"

namespace tdr {
namespace {

// gtest prints Param into the ctest names as raw bytes, so these values
// stay fixed; kSchemeOf maps each onto the factory's kind.
enum class Kind { kEagerGroup, kEagerMaster, kLazyGroup, kLazyMaster };
constexpr SchemeKind kSchemeOf[] = {
    SchemeKind::kEagerGroup, SchemeKind::kEagerMaster, SchemeKind::kLazyGroup,
    SchemeKind::kLazyMaster};

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kEagerGroup:
      return "EagerGroup";
    case Kind::kEagerMaster:
      return "EagerMaster";
    case Kind::kLazyGroup:
      return "LazyGroup";
    case Kind::kLazyMaster:
      return "LazyMaster";
  }
  return "?";
}

struct Param {
  Kind kind;
  std::uint32_t nodes;
  std::uint64_t seed;
};

class SchemePropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void Build(std::uint64_t db_size) {
    Cluster::Options copts;
    copts.num_nodes = GetParam().nodes;
    copts.db_size = db_size;
    copts.action_time = SimTime::Millis(5);
    copts.seed = GetParam().seed;
    cluster_ = std::make_unique<Cluster>(copts);
    built_ = MakeScheme(cluster_.get(),
                        kSchemeOf[static_cast<int>(GetParam().kind)]);
    scheme_ = built_.scheme.get();
  }

  std::unique_ptr<Cluster> cluster_;
  ClusterScheme built_;
  ReplicationScheme* scheme_ = nullptr;
};

TEST_P(SchemePropertyTest, CommittedIncrementsAreConserved) {
  // Run a random commutative workload; whatever committed must be
  // exactly reflected in the total database sum at every replica once
  // the system quiesces. No lost updates, no phantom updates.
  Build(/*db_size=*/64);
  ProgramGenerator::Options gopts;
  gopts.db_size = 64;
  gopts.actions = 3;
  gopts.mix = OpMix::AllCommutative();
  ProgramGenerator gen(gopts);
  Rng rng(GetParam().seed);

  std::int64_t committed_delta = 0;
  int inflight_done = 0;
  for (int i = 0; i < 60; ++i) {
    NodeId origin =
        static_cast<NodeId>(rng.UniformInt(GetParam().nodes));
    Program program = gen.Next(rng);
    std::int64_t delta = 0;
    for (const Op& op : program.ops()) {
      delta += op.type == OpType::kAdd ? op.operand : -op.operand;
    }
    // Stagger submissions in time to create (some) concurrency.
    cluster_->sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(400))),
        [this, origin, program, delta, &committed_delta,
         &inflight_done]() {
          scheme_->Submit(origin, program,
                          [delta, &committed_delta,
                           &inflight_done](const TxnResult& r) {
                            ++inflight_done;
                            if (r.outcome == TxnOutcome::kCommitted) {
                              committed_delta += delta;
                            }
                          });
        });
  }
  cluster_->sim().Run();
  ASSERT_EQ(inflight_done, 60);

  // Lazy-group concurrent updates of the same object can conflict and
  // drop replica updates (that is the paper's point) — conservation at
  // every replica holds only when no reconciliation occurred.
  if (GetParam().kind == Kind::kLazyGroup &&
      cluster_->metrics().Get("replica.conflicts") > 0) {
    GTEST_SKIP() << "lazy-group run hit reconciliations (expected)";
  }
  for (NodeId n = 0; n < GetParam().nodes; ++n) {
    std::int64_t sum = 0;
    for (ObjectId oid = 0; oid < 64; ++oid) {
      sum += cluster_->node(n)->store().GetUnchecked(oid).AsScalar();
    }
    EXPECT_EQ(sum, committed_delta) << "replica " << n;
  }
  EXPECT_TRUE(cluster_->Converged());
}

TEST_P(SchemePropertyTest, NoLockOrGraphLeaksAfterQuiescence) {
  Build(/*db_size=*/16);  // small db: heavy contention, many deadlocks
  ProgramGenerator::Options gopts;
  gopts.db_size = 16;
  gopts.actions = 4;
  gopts.mix = OpMix::AllWrites();
  ProgramGenerator gen(gopts);
  Rng rng(GetParam().seed + 1);
  for (int i = 0; i < 40; ++i) {
    NodeId origin =
        static_cast<NodeId>(rng.UniformInt(GetParam().nodes));
    Program program = gen.Next(rng);
    cluster_->sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(100))),
        [this, origin, program]() {
          scheme_->Submit(origin, program, nullptr);
        });
  }
  cluster_->sim().Run();
  for (NodeId n = 0; n < GetParam().nodes; ++n) {
    EXPECT_EQ(cluster_->node(n)->locks().LockedObjectCount(), 0u)
        << "node " << n;
    EXPECT_EQ(cluster_->node(n)->locks().WaiterCount(), 0u) << "node " << n;
  }
  EXPECT_EQ(cluster_->graph().EdgeCount(), 0u);
  EXPECT_EQ(cluster_->executor().ActiveCount(), 0u);
}

TEST_P(SchemePropertyTest, EveryTransactionGetsExactlyOneOutcome) {
  Build(/*db_size=*/32);
  ProgramGenerator::Options gopts;
  gopts.db_size = 32;
  gopts.actions = 3;
  ProgramGenerator gen(gopts);
  Rng rng(GetParam().seed + 2);
  std::uint64_t submitted = 0, committed = 0, deadlocked = 0, other = 0;
  for (int i = 0; i < 50; ++i) {
    NodeId origin =
        static_cast<NodeId>(rng.UniformInt(GetParam().nodes));
    Program program = gen.Next(rng);
    cluster_->sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(200))),
        [this, origin, program, &submitted, &committed, &deadlocked,
         &other]() {
          ++submitted;
          scheme_->Submit(origin, program, [&](const TxnResult& r) {
            switch (r.outcome) {
              case TxnOutcome::kCommitted:
                ++committed;
                break;
              case TxnOutcome::kDeadlock:
                ++deadlocked;
                break;
              default:
                ++other;
            }
          });
        });
  }
  cluster_->sim().Run();
  EXPECT_EQ(submitted, 50u);
  EXPECT_EQ(committed + deadlocked + other, submitted);
  EXPECT_EQ(other, 0u);  // all nodes connected: nothing unavailable
  EXPECT_EQ(committed, cluster_->executor().committed());
  EXPECT_EQ(deadlocked, cluster_->executor().deadlocked());
}

TEST_P(SchemePropertyTest, DeterministicGivenSeed) {
  auto run_digest = [this]() {
    Build(/*db_size=*/48);
    ProgramGenerator::Options gopts;
    gopts.db_size = 48;
    gopts.actions = 3;
    ProgramGenerator gen(gopts);
    Rng rng(GetParam().seed + 3);
    for (int i = 0; i < 30; ++i) {
      NodeId origin =
          static_cast<NodeId>(rng.UniformInt(GetParam().nodes));
      Program program = gen.Next(rng);
      cluster_->sim().ScheduleAt(
          SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(150))),
          [this, origin, program]() {
            scheme_->Submit(origin, program, nullptr);
          });
    }
    cluster_->sim().Run();
    std::uint64_t digest = cluster_->executor().committed() * 1000003 +
                           cluster_->executor().deadlocked();
    for (NodeId n = 0; n < GetParam().nodes; ++n) {
      digest ^= cluster_->node(n)->store().Digest() + n;
    }
    return digest;
  };
  std::uint64_t first = run_digest();
  std::uint64_t second = run_digest();
  EXPECT_EQ(first, second);
}

std::vector<Param> MakeParams() {
  std::vector<Param> params;
  for (Kind kind : {Kind::kEagerGroup, Kind::kEagerMaster, Kind::kLazyGroup,
                    Kind::kLazyMaster}) {
    for (std::uint32_t nodes : {1u, 2u, 4u}) {
      for (std::uint64_t seed : {7u, 99u}) {
        params.push_back({kind, nodes, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemePropertyTest, ::testing::ValuesIn(MakeParams()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return KindName(info.param.kind) + "_n" +
             std::to_string(info.param.nodes) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace tdr
