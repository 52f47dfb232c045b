// ThreadRuntime semantics: parity with the sim backend it wraps,
// per-node thread placement, same-time FIFO order and cancellation,
// shutdown idempotence, and the SharedPool teardown-order contract on
// a thread-backend cluster. Runs under TSan via the `tsan`/`runtime`
// ctest labels.

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

// The same schedule/cancel/repeat scenario produces the same fire log
// (ids, order, virtual times) through a ThreadRuntime as through the
// bare Simulator — the interface contract the differential suite
// depends on, in miniature.
TEST(ThreadRuntimeTest, SemanticsMatchBareSimulator) {
  auto scenario = [](runtime::Runtime& rt) {
    std::vector<std::pair<int, double>> log;
    rt.ScheduleAt(SimTime::Millis(10), [&] { log.emplace_back(1, 0.0); });
    rt.ScheduleAfter(SimTime::Millis(5),
                     [&] { log.emplace_back(2, rt.Now().seconds()); });
    sim::EventId dead =
        rt.ScheduleAt(SimTime::Millis(7), [&] { log.emplace_back(3, 0.0); });
    EXPECT_TRUE(rt.Cancel(dead));
    sim::EventId tick = rt.RepeatEvery(
        SimTime::Millis(4), [&] { log.emplace_back(4, rt.Now().seconds()); });
    rt.RunUntil(SimTime::Millis(12));
    rt.Cancel(tick);
    rt.Run();
    EXPECT_EQ(rt.Now(), SimTime::Millis(12));
    return log;
  };
  sim::Simulator plain;
  auto expected = scenario(plain);

  sim::Simulator clock;

  obs::MetricsRegistry metrics;
  ThreadRuntime threads(&clock, /*num_nodes=*/3, &metrics);
  auto actual = scenario(threads);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(threads.dispatched() + threads.inline_events(),
            static_cast<std::uint64_t>(expected.size()));
  // Run/RunUntil account the virtual time they advanced and their
  // wall-clock cost (the worker-utilization denominator).
  EXPECT_DOUBLE_EQ(threads.sim_seconds(), 0.012);
  EXPECT_GT(threads.wall_seconds(), 0.0);
}

TEST(ThreadRuntimeTest, NodeTaggedEventsRunOnThatNodesThread) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/3, &metrics);
  std::thread::id coordinator = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  for (std::uint32_t node = 0; node < 3; ++node) {
    rt.ScheduleAfterNode(node, SimTime::Millis(1 + node), [&seen, node] {
      seen[node] = std::this_thread::get_id();
    });
  }
  std::thread::id untagged;
  rt.ScheduleAfter(SimTime::Millis(9),
                   [&] { untagged = std::this_thread::get_id(); });
  rt.Run();
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
    rt.ScheduleAfterNode(1, SimTime::Millis(i + 1),
                         [&] { runs.push_back(std::this_thread::get_id()); });
  }
  rt.Run();
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
  rt.ScheduleAfterNode(0, SimTime::Millis(1), [&] { ++ran; });
  rt.Run();
  EXPECT_EQ(ran, 1);
  rt.Shutdown();
  rt.Shutdown();  // idempotent
  EXPECT_TRUE(rt.stopped());
  // Post-shutdown scheduling still works — events run inline on the
  // coordinator, same order, same results.
  std::thread::id where;
  rt.ScheduleAfterNode(1, SimTime::Millis(1),
                       [&] { where = std::this_thread::get_id(); });
  rt.Run();
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_EQ(rt.dispatched(), 1u);
  EXPECT_EQ(rt.inline_events(), 1u);
}

TEST(ThreadRuntimeTest, OutOfRangeNodeRunsInline) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  std::thread::id where;
  rt.ScheduleAfterNode(7, SimTime::Millis(1),
                       [&] { where = std::this_thread::get_id(); });
  rt.Run();
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
    rt.ScheduleAtNode(1, SimTime::Millis(1),
                      [&order, i] { order.push_back(i); });
  }
  rt.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rt.dispatched(), 5u);
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
  rt.ScheduleAtNode(0, SimTime::Millis(5),
                    [&] { cancel_hit = rt.Cancel(victim); });
  victim = rt.ScheduleAtNode(1, SimTime::Millis(5),
                             [&] { victim_ran = true; });
  rt.Run();
  EXPECT_TRUE(cancel_hit);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(rt.task_pool().in_use(), 0u);
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
    cluster->runtime().Run();
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
