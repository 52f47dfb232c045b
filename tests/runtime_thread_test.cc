// ThreadRuntime, the simulator's thread-backend dispatcher: parity with
// the bare simulator, per-node thread placement, same-time FIFO order
// and cancellation, wide same-time waves, shutdown idempotence, inline
// fallbacks, and the SharedPool teardown-order contract on a
// thread-backend cluster. Every test schedules on the Simulator itself;
// the runtime only runs what it fires. Runs under TSan via the
// `tsan`/`runtime` ctest labels.

#include "runtime/thread_runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "net/message_pool.h"
#include "replication/cluster.h"
#include "replication/lazy_group.h"
#include "sim/simulator.h"
#include "txn/program.h"

namespace tdr {
namespace {

using runtime::ThreadRuntime;

// The same schedule/cancel/repeat scenario, tagged and untagged,
// produces the same fire log (order, virtual times) with the dispatcher
// attached as on a bare Simulator — the contract the differential suite
// depends on, in miniature.
TEST(ThreadRuntimeTest, SemanticsMatchBareSimulator) {
  auto scenario = [](sim::Simulator& sim) {
    std::vector<std::pair<int, double>> log;
    sim.ScheduleAtNode(0, SimTime::Millis(10),
                       [&] { log.emplace_back(1, 0.0); });
    sim.ScheduleAfterNode(1, SimTime::Millis(5),
                          [&] { log.emplace_back(2, sim.Now().seconds()); });
    sim::EventId dead = sim.ScheduleAtNode(2, SimTime::Millis(7),
                                           [&] { log.emplace_back(3, 0.0); });
    EXPECT_TRUE(sim.Cancel(dead));
    sim::EventId tick = sim.RepeatEvery(
        SimTime::Millis(4), [&] { log.emplace_back(4, sim.Now().seconds()); });
    sim.ScheduleAfter(SimTime::Millis(6),
                      [&] { log.emplace_back(5, sim.Now().seconds()); });
    sim.RunUntil(SimTime::Millis(12));
    sim.Cancel(tick);
    sim.Run();
    EXPECT_EQ(sim.Now(), SimTime::Millis(12));
    return log;
  };
  sim::Simulator plain;
  auto expected = scenario(plain);

  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime threads(&clock, /*num_nodes=*/3, &metrics);
  auto actual = scenario(clock);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(clock.executed_events(), plain.executed_events());
  EXPECT_EQ(threads.dispatched(), 2u);  // the two tagged one-shots
  EXPECT_EQ(threads.inline_events(),
            static_cast<std::uint64_t>(expected.size()) - 2);

  // Worker utilization: busy time over the span the backend was
  // dispatching, one sample per worker, published at shutdown.
  threads.Shutdown();
  obs::SnapshotOptions sopts;
  sopts.include_profile = true;
  const obs::MetricsSnapshot snap = metrics.Snapshot(sopts);
  const obs::MetricValue* util = snap.Find("runtime.worker_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->stats.count(), 3u);
  EXPECT_GT(util->stats.max(), 0.0);
  EXPECT_LE(util->stats.max(), 1.0);
  EXPECT_EQ(util->stats.min(), 0.0);  // node 2's worker ran nothing
}

TEST(ThreadRuntimeTest, NodeTaggedEventsRunOnThatNodesThread) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/3, &metrics);
  std::thread::id coordinator = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  for (std::uint32_t node = 0; node < 3; ++node) {
    clock.ScheduleAfterNode(node, SimTime::Millis(1 + node), [&seen, node] {
      seen[node] = std::this_thread::get_id();
    });
  }
  std::thread::id untagged;
  clock.ScheduleAfter(SimTime::Millis(9),
                      [&] { untagged = std::this_thread::get_id(); });
  clock.Run();
  // Each node's event ran on a dedicated worker, none on the
  // coordinator; untagged (kAnyNode) events run inline.
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_NE(seen[node], coordinator) << "node " << node;
    for (std::uint32_t other = 0; other < node; ++other) {
      EXPECT_NE(seen[node], seen[other]);
    }
  }
  EXPECT_EQ(untagged, coordinator);
  EXPECT_EQ(rt.dispatched(), 3u);
  EXPECT_EQ(rt.inline_events(), 1u);
}

TEST(ThreadRuntimeTest, SameNodeEventsShareOneThread) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  std::vector<std::thread::id> runs;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAfterNode(1, SimTime::Millis(i + 1), [&] {
      runs.push_back(std::this_thread::get_id());
    });
  }
  clock.Run();
  ASSERT_EQ(runs.size(), 5u);
  for (const auto& id : runs) EXPECT_EQ(id, runs[0]);
  EXPECT_EQ(rt.mailbox(1).pushed(), 5u);
  EXPECT_EQ(rt.mailbox(0).pushed(), 0u);
}

TEST(ThreadRuntimeTest, ShutdownIsIdempotentAndFallsBackInline) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  int ran = 0;
  clock.ScheduleAfterNode(0, SimTime::Millis(1), [&] { ++ran; });
  clock.Run();
  EXPECT_EQ(ran, 1);
  rt.Shutdown();
  rt.Shutdown();  // idempotent
  EXPECT_TRUE(rt.stopped());
  // Post-shutdown scheduling still works — events run inline on the
  // coordinator, same order, same results.
  std::thread::id where;
  clock.ScheduleAfterNode(1, SimTime::Millis(1),
                          [&] { where = std::this_thread::get_id(); });
  clock.Run();
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(rt.dispatched(), 1u);
  EXPECT_EQ(rt.inline_events(), 1u);
}

TEST(ThreadRuntimeTest, OutOfRangeNodeRunsInline) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  std::thread::id where;
  clock.ScheduleAfterNode(7, SimTime::Millis(1),
                          [&] { where = std::this_thread::get_id(); });
  clock.Run();
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(rt.inline_events(), 1u);
}

// Events on ONE node at one timestamp run FIFO on that node's worker
// — the per-node serial guarantee.
TEST(ThreadRuntimeTest, SameNodeSameTimeKeepsFifoOrder) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAtNode(1, SimTime::Millis(1),
                         [&order, i] { order.push_back(i); });
  }
  clock.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rt.dispatched(), 5u);
}

// A same-time wave of 80 events on each of 4 nodes, twice: every event
// is dispatched to its node's worker, each node's share in schedule
// order.
TEST(ThreadRuntimeTest, WideSameTimeWaveDispatchesEveryEvent) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/4, &metrics);
  constexpr int kPerNode = 80;
  constexpr int kWidth = 4 * kPerNode;
  std::vector<std::vector<int>> order(4);
  auto wave = [&](SimTime when) {
    for (std::uint32_t node = 0; node < 4; ++node) {
      for (int k = 0; k < kPerNode; ++k) {
        clock.ScheduleAtNode(node, when,
                             [&order, node, k] { order[node].push_back(k); });
      }
    }
  };
  wave(SimTime::Millis(1));
  clock.Run();
  wave(SimTime::Millis(2));
  clock.Run();
  for (std::uint32_t node = 0; node < 4; ++node) {
    ASSERT_EQ(order[node].size(), 2u * kPerNode) << "node " << node;
    for (int k = 0; k < 2 * kPerNode; ++k) {
      EXPECT_EQ(order[node][k], k % kPerNode);
    }
  }
  EXPECT_EQ(rt.dispatched(), static_cast<std::uint64_t>(2 * kWidth));
  EXPECT_EQ(rt.inline_events(), 0u);
}

// An event cancelling a SAME-timestamp, later-seq event on another
// node must hit it before it runs — the GroupCommitter window-cancel
// pattern.
TEST(ThreadRuntimeTest, CancelReachesSameTimestampEventOnAnotherNode) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  bool victim_ran = false;
  bool cancel_hit = false;
  sim::EventId victim = sim::kInvalidEventId;
  clock.ScheduleAtNode(0, SimTime::Millis(5),
                       [&] { cancel_hit = clock.Cancel(victim); });
  victim = clock.ScheduleAtNode(1, SimTime::Millis(5),
                                [&] { victim_ran = true; });
  clock.Run();
  EXPECT_TRUE(cancel_hit);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(rt.dispatched(), 1u);
  EXPECT_TRUE(clock.Idle());
}

// Teardown-order contract on the REAL cluster with the thread backend:
// a payload lease captured in an undelivered (parked) message legally
// outlives the scheme that owns the pool. The scheme dies first, the
// network (and its parked messages, and the thread runtime's workers)
// after — nothing may crash or leak, and the last lease frees the
// shared slot store.
TEST(ThreadRuntimeClusterTest, SharedPoolLeaseOutlivesSchemeAtShutdown) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 20;
  copts.backend = RuntimeBackend::kThreads;
  auto cluster = std::make_unique<Cluster>(copts);
  {
    auto scheme = std::make_unique<LazyGroupScheme>(cluster.get());
    // Park propagation to node 2: it disconnects, so the replica-update
    // messages (holding update-batch leases) sit in its outbox queue.
    cluster->net().SetConnected(2, false);
    for (int i = 0; i < 5; ++i) {
      Program p;
      p.Add(Op::Write(i, 100 + i));
      scheme->Submit(0, p, nullptr);
    }
    cluster->sim().Run();
    EXPECT_GT(cluster->thread_runtime()->dispatched(), 0u);
    // Node 0 and 1 converged; node 2 still holds cold values.
    EXPECT_TRUE(cluster->node(0)->store().SameValuesAs(
        cluster->node(1)->store()));
    EXPECT_FALSE(cluster->Converged());
    // Scheme destroyed HERE, leases still parked in the network.
  }
  // Destroying the cluster joins the workers (stop/drain barrier) and
  // releases the parked messages — the leases' release path runs after
  // their pool's owner is gone. ASan/TSan guard this teardown.
  cluster.reset();
}

}  // namespace
}  // namespace tdr
