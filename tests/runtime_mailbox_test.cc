// Units for the thread backend's concurrency primitives: Gate
// signal/wait, Mailbox FIFO order + counters + close/drain semantics,
// the multi-producer path under a producer hammer, and StopBarrier
// rendezvous/reuse. The whole binary also runs under TSan (`ctest -L
// tsan` in a -DTDR_SANITIZE=thread build) — the hammer tests exist to
// give the race detector real interleavings to chew on.

#include "runtime/mailbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/callback.h"

namespace tdr::runtime {
namespace {

TEST(GateTest, SignalReleasesWaiter) {
  Gate gate;
  gate.Reset();
  int ran = 0;
  std::thread waiter([&] {
    gate.Wait();
    ran = 1;
  });
  gate.Signal();
  waiter.join();
  EXPECT_EQ(ran, 1);
}

TEST(GateTest, ReusableAcrossResets) {
  Gate gate;
  for (int round = 0; round < 100; ++round) {
    gate.Reset();
    std::thread signaler([&] { gate.Signal(); });
    gate.Wait();
    signaler.join();
  }
}

TEST(GateTest, SignalBeforeWaitDoesNotBlock) {
  Gate gate;
  gate.Reset();
  gate.Signal();
  gate.Wait();  // must return immediately
}

TEST(MailboxTest, FifoOrderSingleThread) {
  Mailbox box;
  std::vector<int> order;
  sim::Callback cb1 = [&] { order.push_back(1); };
  sim::Callback cb2 = [&] { order.push_back(2); };
  sim::Callback cb3 = [&] { order.push_back(3); };
  Task t1{&cb1}, t2{&cb2}, t3{&cb3};
  t2.weight = 3;  // a chain head counts its whole chain in the depth
  EXPECT_TRUE(box.Push(&t1));
  EXPECT_TRUE(box.Push(&t2));
  EXPECT_TRUE(box.Push(&t3));
  EXPECT_EQ(box.depth(), 5u);
  EXPECT_EQ(box.max_depth(), 5u);
  EXPECT_EQ(box.pushed(), 3u);
  for (int i = 0; i < 3; ++i) {
    Task* t = box.Pop();
    ASSERT_NE(t, nullptr);
    (*t->fn)();
  }
  EXPECT_EQ(box.depth(), 0u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(MailboxTest, CloseRejectsPushAndDrainsQueued) {
  Mailbox box;
  int ran = 0;
  sim::Callback cb = [&] { ++ran; };
  Task queued{&cb};
  ASSERT_TRUE(box.Push(&queued));
  box.Close();
  EXPECT_TRUE(box.closed());
  Task rejected{&cb};
  EXPECT_FALSE(box.Push(&rejected));
  // Drain-on-close: the accepted task is still delivered...
  Task* t = box.Pop();
  ASSERT_EQ(t, &queued);
  (*t->fn)();
  EXPECT_EQ(ran, 1);
  // ...and only then does Pop report "closed, nothing left".
  EXPECT_EQ(box.Pop(), nullptr);
}

TEST(MailboxTest, PopBlocksUntilPush) {
  Mailbox box;
  std::atomic<int> ran{0};
  std::thread consumer([&] {
    while (Task* t = box.Pop()) {
      (*t->fn)();
      ran.fetch_add(1, std::memory_order_relaxed);
    }
  });
  sim::Callback cb = [] {};
  Task t{&cb};
  ASSERT_TRUE(box.Push(&t));
  box.Close();
  consumer.join();
  EXPECT_EQ(ran.load(), 1);
}

// Multi-producer hammer: 8 producers blast 5000 tasks each at one
// consumer. Every task must execute exactly once and nothing may be
// lost at close — this is the TSan workout for the Push/Pop/Close
// paths the turn-based dispatch protocol doesn't reach on its own.
TEST(MailboxStressTest, MultiProducerHammerExecutesEveryTaskOnce) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  Mailbox box;
  std::atomic<std::uint64_t> executed{0};

  // Tasks and callbacks are pre-allocated per producer and owned by
  // this thread, which outlives the consumer — the non-owning Task
  // protocol in its simplest form.
  std::vector<std::vector<sim::Callback>> cbs(kProducers);
  std::vector<std::vector<Task>> tasks(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    cbs[p].reserve(kPerProducer);
    tasks[p].resize(kPerProducer);
    for (int i = 0; i < kPerProducer; ++i) {
      cbs[p].emplace_back(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      tasks[p][i].fn = &cbs[p][i];
    }
  }

  std::thread consumer([&] {
    while (Task* t = box.Pop()) (*t->fn)();
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &tasks, p] {
      for (Task& t : tasks[p]) ASSERT_TRUE(box.Push(&t));
    });
  }
  for (std::thread& t : producers) t.join();
  box.Close();
  consumer.join();
  EXPECT_EQ(executed.load(), static_cast<std::uint64_t>(kProducers) *
                                 kPerProducer);
  EXPECT_EQ(box.pushed(), static_cast<std::uint64_t>(kProducers) *
                              kPerProducer);
  EXPECT_EQ(box.depth(), 0u);
  EXPECT_GE(box.max_depth(), 1u);
}

// Producers racing Close(): every Push that returned true must be
// drained by the consumer; every Push after close must return false.
TEST(MailboxStressTest, CloseRaceLosesNoAcceptedTask) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mailbox box;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::vector<sim::Callback>> cbs(kProducers);
  std::vector<std::vector<Task>> tasks(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    cbs[p].reserve(kPerProducer);
    tasks[p].resize(kPerProducer);
    for (int i = 0; i < kPerProducer; ++i) {
      cbs[p].emplace_back(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      tasks[p][i].fn = &cbs[p][i];
    }
  }

  std::thread consumer([&] {
    while (Task* t = box.Pop()) (*t->fn)();
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &tasks, &accepted, p] {
      for (Task& t : tasks[p]) {
        if (box.Push(&t)) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Close mid-stream from a fifth thread.
  std::thread closer([&box] { box.Close(); });
  for (std::thread& t : producers) t.join();
  closer.join();
  consumer.join();
  EXPECT_EQ(executed.load(), accepted.load());
}

TEST(EpochGateTest, WaitReturnsAfterAllArrivals) {
  EpochGate gate;
  gate.Reset(3);
  std::thread workers([&] {
    gate.Arrive();
    gate.Arrive(2);
  });
  gate.Wait();  // all three arrivals in, possibly before Wait started
  workers.join();
}

TEST(EpochGateTest, ZeroCountWaitReturnsImmediately) {
  EpochGate gate;
  gate.Reset(0);
  gate.Wait();
}

TEST(EpochGateTest, ReusableAcrossWaves) {
  EpochGate gate;
  for (int wave = 1; wave <= 20; ++wave) {
    gate.Reset(static_cast<std::size_t>(wave));
    std::thread arrivals([&] {
      for (int i = 0; i < wave; ++i) gate.Arrive();
    });
    gate.Wait();
    arrivals.join();
  }
}

TEST(StopBarrierTest, AllPartiesRendezvous) {
  constexpr std::size_t kParties = 5;
  StopBarrier barrier(kParties);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.ArriveAndWait();
      // Nobody passes until all have arrived.
      EXPECT_EQ(before.load(), static_cast<int>(kParties));
      after.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(after.load(), static_cast<int>(kParties));
}

TEST(StopBarrierTest, ReusableAcrossGenerations) {
  constexpr std::size_t kParties = 3;
  constexpr int kRounds = 50;
  StopBarrier barrier(kParties);
  std::atomic<int> rounds_done{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        barrier.ArriveAndWait();
        if (r == kRounds - 1) rounds_done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rounds_done.load(), static_cast<int>(kParties));
}

}  // namespace
}  // namespace tdr::runtime
