// Mechanics of the fault subsystem: link cuts park and redeliver,
// crashes lose volatile state but recover the log, the interceptor
// drops/duplicates/delays deterministically, partitions compose, and
// the invariant checker actually catches seeded violations.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "replication/cluster.h"
#include "replication/quorum.h"

namespace tdr {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::InvariantChecker;
using fault::SchemeClass;

Cluster::Options FourNodes() {
  Cluster::Options o;
  o.num_nodes = 4;
  o.db_size = 16;
  o.action_time = SimTime::Millis(1);
  o.seed = 7;
  return o;
}

TEST(LinkFaultTest, CutLinkParksMessagesAndHealRedeliversInOrder) {
  Cluster cluster(FourNodes());
  Network& net = cluster.net();
  std::vector<int> delivered;

  net.SetLinkUp(0, 1, false);
  EXPECT_FALSE(net.LinkUp(0, 1));
  EXPECT_FALSE(net.Reachable(0, 1));
  EXPECT_TRUE(net.Reachable(0, 2));  // only the cut link is affected

  net.Send(0, 1, [&]() { delivered.push_back(1); });
  net.Send(0, 1, [&]() { delivered.push_back(2); });
  net.Send(0, 2, [&]() { delivered.push_back(100); });
  cluster.sim().Run();
  // The cut link parked both messages; the healthy link delivered.
  EXPECT_EQ(net.HeldCount(), 2u);
  EXPECT_EQ(delivered, (std::vector<int>{100}));

  net.SetLinkUp(0, 1, true);
  cluster.sim().Run();
  EXPECT_EQ(net.HeldCount(), 0u);
  // Per-link FIFO order survives the outage.
  EXPECT_EQ(delivered, (std::vector<int>{100, 1, 2}));
  EXPECT_EQ(net.messages_held(), 2u);
}

TEST(LinkFaultTest, OnLinkRestoredFiresAfterHeldTrafficResumes) {
  Cluster cluster(FourNodes());
  Network& net = cluster.net();
  bool delivered = false;
  int restored_calls = 0;
  net.OnLinkRestored([&](NodeId a, NodeId b) {
    ++restored_calls;
    EXPECT_EQ(a, 2u);
    EXPECT_EQ(b, 3u);
  });
  net.SetLinkUp(2, 3, false);
  net.Send(2, 3, [&]() { delivered = true; });
  cluster.sim().Run();
  EXPECT_FALSE(delivered);
  net.SetLinkUp(2, 3, true);
  EXPECT_EQ(restored_calls, 1);
  // Healing an already-up link is a no-op: no duplicate callback.
  net.SetLinkUp(2, 3, true);
  EXPECT_EQ(restored_calls, 1);
  cluster.sim().Run();
  EXPECT_TRUE(delivered);
}

TEST(CrashTest, CrashDiscardsInboxAndDropsArrivals) {
  Cluster cluster(FourNodes());
  Network& net = cluster.net();
  int delivered = 0;

  // Queue a message in node 1's inbox by disconnecting the receiver.
  net.SetConnected(1, false);
  net.Send(0, 1, [&]() { ++delivered; });
  cluster.sim().Run();
  EXPECT_EQ(net.PendingAt(1), 1u);

  // Crash wipes the inbox (volatile receive buffers).
  net.Crash(1);
  EXPECT_TRUE(cluster.node(1)->crashed());
  EXPECT_EQ(net.PendingAt(1), 0u);

  // Messages arriving while crashed are dropped, not queued.
  net.Send(0, 1, [&]() { ++delivered; });
  cluster.sim().Run();
  net.Restart(1);
  cluster.sim().Run();
  EXPECT_FALSE(cluster.node(1)->crashed());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(cluster.metrics().Get("net.crash_dropped"), 1u);
  EXPECT_EQ(cluster.metrics().Get("net.inbox_lost"), 1u);
}

TEST(CrashTest, OutboxSurvivesCrashAndFlushesAtRestart) {
  // A queued outbound message models a committed update in the node's
  // recovery log: the crash must not lose it.
  Cluster cluster(FourNodes());
  Network& net = cluster.net();
  bool delivered = false;
  net.SetConnected(0, false);
  net.Send(0, 2, [&]() { delivered = true; });
  cluster.sim().Run();
  EXPECT_FALSE(delivered);

  net.Crash(0);
  net.Restart(0);
  cluster.sim().Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(cluster.metrics().Get("net.crashes"), 1u);
  EXPECT_EQ(cluster.metrics().Get("net.restarts"), 1u);
}

/// Interceptor with a scripted verdict per call, for exact assertions.
class ScriptedInterceptor : public Network::MessageInterceptor {
 public:
  std::vector<Network::InterceptVerdict> script;
  std::size_t next = 0;

  Network::InterceptVerdict OnTransmit(NodeId, NodeId) override {
    if (next < script.size()) return script[next++];
    return Network::InterceptVerdict{};
  }
};

TEST(InterceptorTest, DropDuplicateAndDelayVerdictsApply) {
  Cluster cluster(FourNodes());
  Network& net = cluster.net();
  ScriptedInterceptor scripted;
  Network::InterceptVerdict drop;
  drop.drop = true;
  Network::InterceptVerdict dup;
  dup.copies = 2;
  Network::InterceptVerdict slow;
  slow.extra_delay = SimTime::Millis(50);
  scripted.script = {drop, dup, slow};
  net.set_interceptor(&scripted);

  int a = 0, b = 0, c = 0;
  net.Send(0, 1, [&]() { ++a; });  // dropped
  net.Send(0, 1, [&]() { ++b; });  // duplicated
  SimTime t0 = cluster.sim().Now();
  net.Send(0, 1, [&]() { ++c; });  // delayed
  cluster.sim().Run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_duplicated(), 1u);
  EXPECT_GE(cluster.sim().Now() - t0, SimTime::Millis(50));
  net.set_interceptor(nullptr);
}

TEST(InterceptorTest, SelfSendsBypassTheInterceptor) {
  Cluster cluster(FourNodes());
  ScriptedInterceptor scripted;
  Network::InterceptVerdict drop;
  drop.drop = true;
  scripted.script = {drop};
  cluster.net().set_interceptor(&scripted);
  bool delivered = false;
  cluster.net().Send(2, 2, [&]() { delivered = true; });
  cluster.sim().Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(scripted.next, 0u);  // never consulted
  cluster.net().set_interceptor(nullptr);
}

TEST(InjectorTest, PartitionSeversExactlyGroupToComplementLinks) {
  Cluster cluster(FourNodes());
  FaultInjector injector(&cluster, FaultPlan(), Rng(7, 777));
  injector.StartPartition("split", {0, 1});
  Network& net = cluster.net();
  // Within each side: reachable. Across: not.
  EXPECT_TRUE(net.Reachable(0, 1));
  EXPECT_TRUE(net.Reachable(2, 3));
  EXPECT_FALSE(net.Reachable(0, 2));
  EXPECT_FALSE(net.Reachable(1, 3));
  injector.HealPartition("split");
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_TRUE(net.Reachable(a, b));
    }
  }
}

TEST(InjectorTest, OverlappingSeparationsComposeByCount) {
  Cluster cluster(FourNodes());
  FaultInjector injector(&cluster, FaultPlan(), Rng(7, 777));
  // Link (0,2) is severed by BOTH the named partition and a manual cut.
  injector.StartPartition("p", {0});
  injector.CutLink(0, 2);
  EXPECT_FALSE(cluster.net().Reachable(0, 2));
  injector.HealPartition("p");
  // Still down: the manual cut holds its separation.
  EXPECT_FALSE(cluster.net().Reachable(0, 2));
  EXPECT_TRUE(cluster.net().Reachable(0, 1));  // partition side healed
  injector.HealLink(0, 2);
  EXPECT_TRUE(cluster.net().Reachable(0, 2));
}

TEST(InjectorTest, HealAllRestoresEverythingItBroke) {
  Cluster cluster(FourNodes());
  FaultInjector injector(&cluster, FaultPlan(), Rng(7, 777));
  injector.Crash(3);
  injector.StartPartition("a", {0});
  injector.CutLink(1, 2);
  injector.SetChaosActive(true);
  injector.HealAll();
  EXPECT_FALSE(cluster.node(3)->crashed());
  EXPECT_TRUE(cluster.node(3)->connected());
  EXPECT_FALSE(injector.chaos_active());
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_TRUE(cluster.net().Reachable(a, b)) << a << "->" << b;
    }
  }
}

TEST(InjectorTest, ScheduledPlanAppliesAtItsTimes) {
  Cluster cluster(FourNodes());
  FaultPlan plan;
  plan.CrashAt(SimTime::Seconds(1), 2)
      .RestartAt(SimTime::Seconds(3), 2)
      .PartitionAt(SimTime::Seconds(2), "mid", {0})
      .HealPartitionAt(SimTime::Seconds(4), "mid");
  FaultInjector injector(&cluster, plan, Rng(7, 777));
  injector.Arm();

  cluster.sim().RunUntil(SimTime::Seconds(1.5));
  EXPECT_TRUE(cluster.node(2)->crashed());
  cluster.sim().RunUntil(SimTime::Seconds(2.5));
  EXPECT_FALSE(cluster.net().Reachable(0, 1));
  cluster.sim().RunUntil(SimTime::Seconds(5));
  EXPECT_FALSE(cluster.node(2)->crashed());
  EXPECT_TRUE(cluster.net().Reachable(0, 1));
  EXPECT_EQ(cluster.metrics().Get("fault.crashes"), 1u);
  EXPECT_EQ(cluster.metrics().Get("fault.restarts"), 1u);
  // The applied log names every fault with its event time.
  std::string log = injector.AppliedLogString();
  EXPECT_NE(log.find("crash node=2"), std::string::npos);
  EXPECT_NE(log.find("partition \"mid\""), std::string::npos);
}

TEST(InjectorTest, ChaosDrawsAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Cluster cluster(FourNodes());
    fault::ChaosProfile chaos;
    chaos.drop_probability = 0.2;
    chaos.duplicate_probability = 0.2;
    chaos.delay_probability = 0.2;
    chaos.max_extra_delay = SimTime::Millis(10);
    FaultPlan plan;
    plan.WithChaos(chaos);
    FaultInjector injector(&cluster, plan, Rng(seed, 777));
    injector.Arm();
    int delivered = 0;
    for (int i = 0; i < 200; ++i) {
      cluster.net().Send(i % 4, (i + 1) % 4, [&]() { ++delivered; });
    }
    cluster.sim().Run();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int>(
        injector.injected_drops(), injector.injected_duplicates(),
        injector.injected_delays(), delivered);
  };
  auto first = run(11);
  EXPECT_EQ(first, run(11));       // bit-identical replay
  EXPECT_NE(first, run(12));       // and actually seed-dependent
  EXPECT_GT(std::get<0>(first), 0u);
  EXPECT_GT(std::get<1>(first), 0u);
}

TEST(FaultPlanTest, RandomPlansAreWellFormed) {
  Rng rng(99, 1);
  for (int i = 0; i < 50; ++i) {
    FaultPlan plan = FaultPlan::Random(&rng, 5, SimTime::Seconds(30));
    EXPECT_TRUE(plan.EndsHealed()) << plan.ToString();
    for (const fault::FaultAction& a : plan.actions()) {
      EXPECT_LE(a.at, SimTime::Seconds(30));
      EXPECT_GE(a.at, SimTime::Zero());
    }
  }
}

TEST(FaultPlanTest, ChaosAlwaysOnUnlessScheduled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.ChaosAlwaysOn());  // empty profile
  fault::ChaosProfile chaos;
  chaos.drop_probability = 0.01;
  plan.WithChaos(chaos);
  EXPECT_TRUE(plan.ChaosAlwaysOn());
  plan.ChaosOnAt(SimTime::Seconds(1));
  EXPECT_FALSE(plan.ChaosAlwaysOn());  // explicit schedule takes over
}

TEST(InvariantCheckerTest, CleanClusterPassesAllChecks) {
  Cluster cluster(FourNodes());
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kEagerGroup;
  InvariantChecker checker(&cluster, opts);
  checker.CheckFinal();
  EXPECT_EQ(checker.violations_total(), 0u);
}

TEST(InvariantCheckerTest, DetectsMonotoneTimestampRegression) {
  Cluster cluster(FourNodes());
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kEagerGroup;
  InvariantChecker checker(&cluster, opts);
  ASSERT_TRUE(
      cluster.node(0)->store().Put(3, Value(9), Timestamp{5, 0}).ok());
  checker.CheckNow();  // baseline: records ts (5,0)
  EXPECT_EQ(checker.violations_total(), 0u);
  ASSERT_TRUE(
      cluster.node(0)->store().Put(3, Value(1), Timestamp{2, 0}).ok());
  checker.CheckNow();
  auto violations = checker.TakeViolations();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "monotone-timestamps");
}

TEST(InvariantCheckerTest, DetectsTimestampValueDisagreement) {
  Cluster cluster(FourNodes());
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kEagerGroup;
  InvariantChecker checker(&cluster, opts);
  // Same (object, timestamp), different values: a forged split-brain.
  ASSERT_TRUE(
      cluster.node(0)->store().Put(5, Value(1), Timestamp{3, 1}).ok());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(5, Value(2), Timestamp{3, 1}).ok());
  checker.CheckNow();
  auto violations = checker.TakeViolations();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "timestamp-value-agreement");
}

TEST(InvariantCheckerTest, AgreementChecksEachHolderAgainstTheFirst) {
  Cluster::Options o = FourNodes();
  o.wal.mode = DurabilityMode::kCommit;
  Cluster cluster(o);
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kEagerGroup;
  InvariantChecker checker(&cluster, opts);
  // Nodes 0 and 3 hold (5, 3@0) with different values; node 2 is at
  // another timestamp. Node 1 is down under WAL, so its store is not
  // visible, whatever it holds.
  cluster.recovery().Crash(1);
  ASSERT_TRUE(
      cluster.node(0)->store().Put(5, Value(10), Timestamp{3, 0}).ok());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(5, Value(11), Timestamp{3, 0}).ok());
  ASSERT_TRUE(
      cluster.node(2)->store().Put(5, Value(12), Timestamp{4, 2}).ok());
  ASSERT_TRUE(
      cluster.node(3)->store().Put(5, Value(13), Timestamp{3, 0}).ok());
  checker.CheckNow();
  auto violations = checker.TakeViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "timestamp-value-agreement");
  EXPECT_EQ(violations[0].detail,
            "object 5 at ts 3@0: node 0 holds 10, node 3 holds 13");
}

TEST(InvariantCheckerTest, DetectsReplicaAheadOfMaster) {
  Cluster cluster(FourNodes());
  Ownership own = Ownership::SingleMaster(16, 0);
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kLazyMaster;
  opts.ownership = &own;
  InvariantChecker checker(&cluster, opts);
  // Node 2 (a slave) holds a newer version than the master: impossible
  // under "only the master updates the primary copy".
  ASSERT_TRUE(
      cluster.node(2)->store().Put(7, Value(4), Timestamp{9, 2}).ok());
  checker.CheckNow();
  auto violations = checker.TakeViolations();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "single-master-dominance");
}

// Quorum-intersection's negative control. A version committed at a
// write quorum and then rolled back at all but one of its holders falls
// below W votes, and the sweep reports it with and without the WAL.
// With a node down, the durable-store model still counts that node's
// store; under the WAL the store is wiped until replay, so the sweep
// waits for the node.
TEST(InvariantCheckerTest, DetectsNewestVersionBelowWriteQuorum) {
  for (DurabilityMode mode : {DurabilityMode::kOff, DurabilityMode::kGroup}) {
    SCOPED_TRACE(DurabilityModeName(mode));
    Cluster::Options o = FourNodes();
    o.wal.mode = mode;
    Cluster cluster(o);
    QuorumEagerScheme quorum(&cluster);
    ASSERT_EQ(quorum.write_quorum(), 3u);
    InvariantChecker::Options opts;
    opts.scheme = SchemeClass::kQuorum;
    opts.quorum = &quorum;
    InvariantChecker checker(&cluster, opts);
    quorum.Submit(0, Program({Op::Write(6, 42)}), nullptr);
    cluster.sim().Run();
    std::vector<NodeId> holders;
    for (NodeId id = 0; id < cluster.size(); ++id) {
      if (!cluster.node(id)->store().GetUnchecked(6).ts.IsZero()) {
        holders.push_back(id);
      }
    }
    ASSERT_EQ(holders.size(), 3u);
    const Timestamp newest = cluster.node(holders[0])->store()
                                 .GetUnchecked(6).ts;
    for (std::size_t i = 1; i < holders.size(); ++i) {
      ASSERT_TRUE(cluster.node(holders[i])
                      ->store()
                      .Put(6, Value(0), Timestamp::Zero())
                      .ok());
    }
    checker.CheckNow();
    auto violations = checker.TakeViolations();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "quorum-intersection");
    EXPECT_EQ(violations[0].detail,
              "object 6: newest version ts " + newest.ToString() +
                  " held by only 1 of 3 required votes");

    cluster.recovery().Crash(holders[1]);
    checker.CheckNow();
    EXPECT_EQ(checker.TakeViolations().size(),
              mode == DurabilityMode::kOff ? 1u : 0u);
  }
}

TEST(InvariantCheckerTest, ViolationCarriesFaultTrace) {
  Cluster cluster(FourNodes());
  FaultInjector injector(&cluster, FaultPlan(), Rng(7, 777));
  injector.Crash(1);
  InvariantChecker::Options opts;
  opts.scheme = SchemeClass::kEagerGroup;
  opts.trace_fn = [&injector]() { return injector.AppliedLogString(); };
  InvariantChecker checker(&cluster, opts);
  ASSERT_TRUE(
      cluster.node(0)->store().Put(0, Value(1), Timestamp{2, 0}).ok());
  ASSERT_TRUE(
      cluster.node(1)->store().Put(0, Value(9), Timestamp{2, 0}).ok());
  checker.CheckNow();
  auto violations = checker.TakeViolations();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].fault_trace.find("crash node=1"),
            std::string::npos);
  EXPECT_NE(violations[0].ToString().find("fault trace"), std::string::npos);
  injector.HealAll();
}

}  // namespace
}  // namespace tdr
