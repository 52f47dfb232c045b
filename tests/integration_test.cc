// Cross-module integration scenarios: long mixed workloads driving the
// full stack (simulator + lock manager + executor + network +
// connectivity schedules + replication schemes + two-tier core) and
// checking end-state invariants.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/two_tier.h"
#include "net/network.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "workload/workload.h"

namespace tdr {
namespace {

TEST(IntegrationTest, LazyMasterLongRunConvergesUnderChurn) {
  // 4 nodes, 2000 transactions over 100 simulated seconds, commutative
  // mix: everything must converge and conserve.
  Cluster::Options copts;
  copts.num_nodes = 4;
  copts.db_size = 256;
  copts.action_time = SimTime::Millis(2);
  copts.seed = 1234;
  Cluster cluster(copts);
  std::vector<NodeId> all(4);
  std::iota(all.begin(), all.end(), 0);
  Ownership own = Ownership::RoundRobin(256, all);
  LazyMasterScheme scheme(&cluster, &own);

  ProgramGenerator::Options gopts;
  gopts.db_size = 256;
  gopts.actions = 4;
  gopts.mix = OpMix::AllCommutative();
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  std::int64_t committed_delta = 0;
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (NodeId origin = 0; origin < 4; ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = 5;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster.sim(), aopts, rng.Fork(), [&, origin, gen_rng]() {
          Program p = gen.Next(*gen_rng);
          std::int64_t delta = 0;
          for (const Op& op : p.ops()) {
            delta += op.type == OpType::kAdd ? op.operand : -op.operand;
          }
          scheme.Submit(origin, p, [&, delta](const TxnResult& r) {
            if (r.outcome == TxnOutcome::kCommitted) {
              committed_delta += delta;
            }
          });
        }));
    arrivals.back()->Start();
  }
  cluster.sim().RunUntil(SimTime::Seconds(100));
  for (auto& a : arrivals) a->Stop();
  cluster.sim().Run();

  EXPECT_GT(cluster.executor().committed(), 1500u);
  EXPECT_TRUE(cluster.Converged());
  std::int64_t sum = 0;
  for (ObjectId oid = 0; oid < 256; ++oid) {
    sum += cluster.node(0)->store().GetUnchecked(oid).AsScalar();
  }
  EXPECT_EQ(sum, committed_delta);
  EXPECT_EQ(cluster.metrics().Get("replica.conflicts"), 0u);
  EXPECT_EQ(cluster.graph().EdgeCount(), 0u);
}

TEST(IntegrationTest, LazyGroupMobileChurnShowsDelusionLazyMasterDoesNot) {
  // The same mobile churn workload under lazy-group vs lazy-master:
  // group ends divergent (system delusion), master converges.
  auto run = [](bool group) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 32;
    copts.action_time = SimTime::Millis(2);
    copts.seed = 77;
    auto cluster = std::make_unique<Cluster>(copts);
    std::vector<NodeId> bases = {0};
    Ownership own = Ownership::RoundRobin(32, bases);
    std::unique_ptr<ReplicationScheme> scheme;
    if (group) {
      scheme = std::make_unique<LazyGroupScheme>(cluster.get());
    } else {
      scheme = std::make_unique<LazyMasterScheme>(cluster.get(), &own);
    }
    Rng rng = cluster->ForkRng();
    ProgramGenerator::Options gopts;
    gopts.db_size = 32;
    gopts.actions = 2;
    gopts.mix = OpMix::AllWrites();
    ProgramGenerator gen(gopts);

    // Nodes 1 and 2 cycle connectivity; everyone submits updates.
    std::vector<std::unique_ptr<ConnectivitySchedule>> schedules;
    for (NodeId id : {1u, 2u}) {
      ConnectivitySchedule::Options sopts;
      sopts.time_between_disconnects = SimTime::Seconds(2);
      sopts.disconnected_time = SimTime::Seconds(5);
      schedules.push_back(std::make_unique<ConnectivitySchedule>(
          &cluster->sim(), &cluster->net(), id, sopts, rng.Fork()));
      schedules.back()->Start();
    }
    std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
    for (NodeId origin = 0; origin < 3; ++origin) {
      OpenLoopArrivals::Options aopts;
      aopts.tps = 2;
      auto gen_rng = std::make_shared<Rng>(rng.Fork());
      arrivals.push_back(std::make_unique<OpenLoopArrivals>(
          &cluster->sim(), aopts, rng.Fork(),
          [&arrivals, s = scheme.get(), &gen, origin, gen_rng]() {
            s->Submit(origin, gen.Next(*gen_rng), nullptr);
          }));
      arrivals.back()->Start();
    }
    cluster->sim().RunUntil(SimTime::Seconds(60));
    for (auto& a : arrivals) a->Stop();
    for (auto& s : schedules) s->Stop();
    cluster->net().SetConnected(1, true);
    cluster->net().SetConnected(2, true);
    cluster->sim().Run();
    struct R {
      std::uint64_t divergent;
      std::uint64_t conflicts;
    };
    return R{cluster->DivergentSlots(),
             cluster->metrics().Get("replica.conflicts")};
  };

  auto group = run(true);
  auto master = run(false);
  // Lazy group: disconnected-period collisions produced conflicts and
  // permanent divergence.
  EXPECT_GT(group.conflicts, 0u);
  EXPECT_GT(group.divergent, 0u);
  // Lazy master: zero conflicts, full convergence.
  EXPECT_EQ(master.conflicts, 0u);
  EXPECT_EQ(master.divergent, 0u);
}

TEST(IntegrationTest, TwoTierManyMobilesLongChurn) {
  // 2 base + 4 mobile nodes, commutative account updates, connectivity
  // cycling for 300 simulated seconds: the base tier must stay
  // serializable and converged, every tentative transaction must
  // eventually resolve, and the final balance must equal the sum of all
  // ACCEPTED deltas.
  TwoTierSystem::Options topts;
  topts.num_base = 2;
  topts.num_mobile = 4;
  topts.db_size = 64;
  topts.action_time = SimTime::Millis(2);
  topts.seed = 4321;
  TwoTierSystem sys(topts);

  Rng rng = sys.cluster().ForkRng();
  std::int64_t accepted_delta = 0;
  std::uint64_t finals = 0, submitted = 0;

  std::vector<std::unique_ptr<ConnectivitySchedule>> schedules;
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (std::uint32_t m = 0; m < 4; ++m) {
    NodeId mobile = 2 + m;
    ConnectivitySchedule::Options sopts;
    sopts.time_between_disconnects = SimTime::Seconds(3);
    sopts.disconnected_time = SimTime::Seconds(10);
    sopts.start_disconnected = (m % 2 == 0);
    schedules.push_back(std::make_unique<ConnectivitySchedule>(
        &sys.sim(), &sys.cluster().net(), mobile, sopts, rng.Fork()));
    schedules.back()->Start();

    OpenLoopArrivals::Options aopts;
    aopts.tps = 1;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &sys.sim(), aopts, rng.Fork(), [&, mobile, gen_rng]() {
          ObjectId oid = gen_rng->UniformInt(64);
          std::int64_t delta = gen_rng->UniformRange(-20, 20);
          ++submitted;
          Status s = sys.SubmitTentative(
              mobile, Program({Op::Add(oid, delta)}), AcceptAlways(),
              nullptr, [&, delta](const FinalOutcome& o) {
                ++finals;
                if (o.accepted) accepted_delta += delta;
              });
          ASSERT_TRUE(s.ok());
        }));
    arrivals.back()->Start();
  }
  sys.sim().RunUntil(SimTime::Seconds(300));
  for (auto& a : arrivals) a->Stop();
  for (auto& s : schedules) s->Stop();
  // Final reconnect so every pending tentative transaction resolves and
  // every queued notice is delivered.
  for (NodeId m = 2; m < 6; ++m) sys.Connect(m);
  sys.sim().Run();

  EXPECT_GT(submitted, 800u);
  EXPECT_EQ(finals, submitted);
  EXPECT_EQ(sys.base_rejected(), 0u);  // commutative adds always accepted
  EXPECT_TRUE(sys.BaseTierConverged());
  std::int64_t sum = 0;
  for (ObjectId oid = 0; oid < 64; ++oid) {
    sum += sys.cluster().node(0)->store().GetUnchecked(oid).AsScalar();
  }
  EXPECT_EQ(sum, accepted_delta);
  // All mobiles refreshed to the master state too (connected + quiesced).
  for (NodeId m = 2; m < 6; ++m) {
    EXPECT_TRUE(sys.cluster().node(m)->store().SameValuesAs(
        sys.cluster().node(0)->store()))
        << "mobile " << m;
  }
}

TEST(IntegrationTest, MessageDelayIncreasesLazyGroupConflicts) {
  // The paper: "If message propagation times were added, the
  // reconciliation rate would rise." Same workload, two delays.
  auto run = [](SimTime delay) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 64;
    copts.action_time = SimTime::Millis(2);
    copts.seed = 99;
    copts.net.delay = delay;
    auto cluster = std::make_unique<Cluster>(copts);
    LazyGroupScheme scheme(cluster.get());
    Rng rng = cluster->ForkRng();
    ProgramGenerator::Options gopts;
    gopts.db_size = 64;
    gopts.actions = 2;
    ProgramGenerator gen(gopts);
    std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
    for (NodeId origin = 0; origin < 3; ++origin) {
      OpenLoopArrivals::Options aopts;
      aopts.tps = 4;
      auto gen_rng = std::make_shared<Rng>(rng.Fork());
      arrivals.push_back(std::make_unique<OpenLoopArrivals>(
          &cluster->sim(), aopts, rng.Fork(),
          [&scheme, &gen, origin, gen_rng]() {
            scheme.Submit(origin, gen.Next(*gen_rng), nullptr);
          }));
      arrivals.back()->Start();
    }
    cluster->sim().RunUntil(SimTime::Seconds(120));
    for (auto& a : arrivals) a->Stop();
    cluster->sim().Run();
    return scheme.reconciliations();
  };
  std::uint64_t fast = run(SimTime::Zero());
  std::uint64_t slow = run(SimTime::Seconds(2));
  EXPECT_GT(slow, fast);
}

}  // namespace
}  // namespace tdr
