// Stress and determinism tests for the discrete-event kernel — the
// substrate every experiment's reproducibility rests on.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace tdr::sim {
namespace {

TEST(SimStressTest, HundredThousandEventsInOrder) {
  Simulator sim;
  Rng rng(1);
  SimTime last_seen;
  bool monotonic = true;
  for (int i = 0; i < 100000; ++i) {
    sim.ScheduleAt(SimTime::Micros(
                       static_cast<std::int64_t>(rng.UniformInt(1000000))),
                   [&] {
                     if (sim.Now() < last_seen) monotonic = false;
                     last_seen = sim.Now();
                   });
  }
  EXPECT_EQ(sim.Run(), 100000u);
  EXPECT_TRUE(monotonic);
}

TEST(SimStressTest, DeterministicExecutionCountAcrossRuns) {
  auto run = [] {
    Simulator sim;
    Rng rng(77);
    // Self-expanding workload: events spawn events with probability.
    std::function<void(int)> spawn = [&](int depth) {
      if (depth <= 0) return;
      int children = static_cast<int>(rng.UniformInt(3));
      for (int c = 0; c < children; ++c) {
        sim.ScheduleAfter(
            SimTime::Micros(
                static_cast<std::int64_t>(rng.UniformInt(50) + 1)),
            [&spawn, depth] { spawn(depth - 1); });
      }
    };
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(SimTime::Micros(i), [&spawn] { spawn(6); });
    }
    sim.Run();
    return std::make_pair(sim.executed_events(), sim.Now().micros());
  };
  EXPECT_EQ(run(), run());
}

TEST(SimStressTest, ManyRepeatersWithStaggeredCancellation) {
  Simulator sim;
  const int kSeries = 50;
  std::vector<int> ticks(kSeries, 0);
  std::vector<EventId> ids(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    ids[s] = sim.RepeatEvery(SimTime::Millis(s + 1),
                             [&ticks, s] { ++ticks[s]; });
  }
  // Cancel series s at time (s+1) * 10 ms: it should have fired ~10x.
  for (int s = 0; s < kSeries; ++s) {
    sim.ScheduleAt(SimTime::Millis((s + 1) * 10),
                   [&sim, &ids, s] { sim.Cancel(ids[s]); });
  }
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(sim.Idle());
  for (int s = 0; s < kSeries; ++s) {
    EXPECT_GE(ticks[s], 9) << "series " << s;
    EXPECT_LE(ticks[s], 10) << "series " << s;
  }
}

TEST(SimStressTest, MassCancellationLeavesQueueConsistent) {
  Simulator sim;
  Rng rng(9);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sim.ScheduleAt(
        SimTime::Micros(static_cast<std::int64_t>(rng.UniformInt(5000))),
        [&fired] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    if (sim.Cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(cancelled, 5000);
  EXPECT_EQ(sim.PendingEvents(), 5000u);
  sim.Run();
  EXPECT_EQ(fired, 5000);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimStressTest, CancelledTimersBesideFarEventsNeverCompactPerCancel) {
  // 20,000 events beyond the wheel's span wait in the overflow heap while
  // five rounds of 100,000 10 ms timers are scheduled and cancelled. The
  // heap compacts only when its own entries pass 2·pending + 64; a
  // trigger that compacted the 20,000-entry heap on every Cancel runs
  // this test hundreds of times slower, and tests/CMakeLists.txt gives
  // the binary a TIMEOUT that such a run overruns at least tenfold.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 20000; ++i) {
    sim.ScheduleAt(SimTime::Seconds(10) + SimTime::Micros(i),
                   [&fired] { ++fired; });
  }
  std::vector<EventId> timers;
  int cancelled = 0;
  for (int round = 0; round < 5; ++round) {
    timers.clear();
    for (int i = 0; i < 100000; ++i) {
      timers.push_back(
          sim.ScheduleAfter(SimTime::Millis(10), [&fired] { ++fired; }));
    }
    for (EventId id : timers) cancelled += sim.Cancel(id) ? 1 : 0;
    sim.RunUntil(sim.Now() + SimTime::Millis(1));
  }
  EXPECT_EQ(cancelled, 500000);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.PendingEvents(), 20000u);
  sim.Run();
  EXPECT_EQ(fired, 20000);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimStressTest, InterleavedRunUntilWindowsEqualOneBigRun) {
  auto schedule_all = [](Simulator& sim, int* counter) {
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
      sim.ScheduleAt(
          SimTime::Micros(static_cast<std::int64_t>(rng.UniformInt(99999))),
          [counter] { ++*counter; });
    }
  };
  Simulator one_shot;
  int a = 0;
  schedule_all(one_shot, &a);
  one_shot.RunUntil(SimTime::Micros(100000));

  Simulator windowed;
  int b = 0;
  schedule_all(windowed, &b);
  for (int w = 1; w <= 100; ++w) {
    windowed.RunUntil(SimTime::Micros(w * 1000));
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(one_shot.executed_events(), windowed.executed_events());
}

TEST(SimStressTest, ClampedSchedulingCountsEveryViolation) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::Millis(100), [&] {
    for (int i = 0; i < 7; ++i) {
      sim.ScheduleAt(SimTime::Millis(i), [&fired] { ++fired; });
    }
  });
  sim.Run();
  EXPECT_EQ(fired, 7);  // all clamped to t=100ms and executed
  EXPECT_EQ(sim.clamped_schedules(), 7u);
}

TEST(SimStressTest, CancelInsideEventOfSameTimestamp) {
  // An event cancelling a later same-timestamp event must win: ties
  // execute in schedule order, so the canceller (scheduled first) runs
  // first.
  Simulator sim;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  sim.ScheduleAt(SimTime::Millis(5), [&] { sim.Cancel(second); });
  second = sim.ScheduleAt(SimTime::Millis(5), [&] { second_ran = true; });
  sim.Run();
  EXPECT_FALSE(second_ran);
}

}  // namespace
}  // namespace tdr::sim
