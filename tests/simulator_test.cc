#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace tdr::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(30));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime observed;
  sim.ScheduleAt(SimTime::Millis(10), [&] {
    sim.ScheduleAfter(SimTime::Millis(5),
                      [&] { observed = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, SimTime::Millis(15));
}

TEST(SimulatorTest, SchedulingInPastClampsToNow) {
  Simulator sim;
  SimTime fired;
  sim.ScheduleAt(SimTime::Millis(10), [&] {
    sim.ScheduleAt(SimTime::Millis(1), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::Millis(10));
  EXPECT_EQ(sim.clamped_schedules(), 1u);
}

TEST(SimulatorTest, NegativeDelayClamps) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(SimTime::Millis(-5), [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.ScheduleAt(SimTime::Millis(5), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(SimulatorTest, PendingEventsTracksCancellation) {
  Simulator sim;
  EventId a = sim.ScheduleAt(SimTime::Millis(1), [] {});
  sim.ScheduleAt(SimTime::Millis(2), [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, RunUntilStopsAtHorizonInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.ScheduleAt(SimTime::Millis(10), [&] { fired.push_back(10); });
  sim.ScheduleAt(SimTime::Millis(20), [&] { fired.push_back(20); });
  sim.ScheduleAt(SimTime::Millis(30), [&] { fired.push_back(30); });
  std::uint64_t ran = sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(20));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sim.Now(), SimTime::Millis(100));  // advances to horizon
}

TEST(SimulatorTest, RunUntilAdvancesClockWithNoEvents) {
  Simulator sim;
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(SimTime::Millis(1), [&] { ++count; });
  sim.ScheduleAt(SimTime::Millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.ScheduleAfter(SimTime::Micros(1), recurse);
  };
  sim.ScheduleAfter(SimTime::Micros(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), SimTime::Micros(100));
}

TEST(SimulatorTest, RunRespectsMaxEvents) {
  Simulator sim;
  std::function<void()> forever = [&] {
    sim.ScheduleAfter(SimTime::Micros(1), forever);
  };
  sim.ScheduleAfter(SimTime::Micros(1), forever);
  std::uint64_t ran = sim.Run(/*max_events=*/500);
  EXPECT_EQ(ran, 500u);
}

TEST(SimulatorTest, RepeatEveryFiresPeriodically) {
  Simulator sim;
  int ticks = 0;
  sim.RepeatEvery(SimTime::Millis(10), [&] { ++ticks; });
  sim.RunUntil(SimTime::Millis(55));
  EXPECT_EQ(ticks, 5);  // at 10,20,30,40,50
}

TEST(SimulatorTest, RepeatEveryCancelStopsSeries) {
  Simulator sim;
  int ticks = 0;
  EventId series = sim.RepeatEvery(SimTime::Millis(10), [&] { ++ticks; });
  sim.RunUntil(SimTime::Millis(25));
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(sim.Cancel(series));
  sim.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(ticks, 2);
}

TEST(SimulatorTest, RepeatEveryCanCancelItselfFromInside) {
  Simulator sim;
  int ticks = 0;
  EventId series = kInvalidEventId;
  series = sim.RepeatEvery(SimTime::Millis(1), [&] {
    if (++ticks == 3) sim.Cancel(series);
  });
  sim.Run();
  EXPECT_EQ(ticks, 3);
}

// Checked in every build: a zero interval would fire once and leave a
// dead id, a negative one would run the clock backwards.
TEST(SimulatorDeathTest, RepeatEveryRejectsAZeroInterval) {
  Simulator sim;
  EXPECT_DEATH(sim.RepeatEvery(SimTime::Zero(), [] {}),
               "interval 0 us is not positive");
}

TEST(SimulatorDeathTest, RepeatEveryRejectsANegativeInterval) {
  Simulator sim;
  EXPECT_DEATH(sim.RepeatEvery(SimTime::Micros(-1), [] {}),
               "interval -1 us is not positive");
}

TEST(SimulatorTest, NegativeDelayCountsAsClamped) {
  // Regression: ScheduleAfter used to clamp negative delays silently,
  // while ScheduleAt counted past-time clamps. Both paths must count.
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(SimTime::Millis(-5), [&] { ran = true; });
  EXPECT_EQ(sim.clamped_schedules(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), SimTime::Zero());
  EXPECT_EQ(sim.clamped_schedules(), 1u);
}

TEST(SimulatorTest, CancelAlreadyFiredReturnsFalse) {
  Simulator sim;
  EventId id = sim.ScheduleAt(SimTime::Millis(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
  // Also from inside the event's own callback: by then it has fired.
  EventId self = kInvalidEventId;
  bool self_cancel = true;
  self = sim.ScheduleAt(SimTime::Millis(2),
                        [&] { self_cancel = sim.Cancel(self); });
  sim.Run();
  EXPECT_FALSE(self_cancel);
}

TEST(SimulatorTest, CancelledIdStaysDeadAfterSlotReuse) {
  // Ids are never reused: an id for a fired/cancelled event must stay
  // invalid even after its internal storage is recycled by new events.
  Simulator sim;
  EventId a = sim.ScheduleAt(SimTime::Millis(1), [] {});
  EXPECT_TRUE(sim.Cancel(a));
  std::vector<EventId> fresh;
  for (int i = 0; i < 10; ++i) {
    fresh.push_back(sim.ScheduleAt(SimTime::Millis(2 + i), [] {}));
  }
  for (EventId id : fresh) EXPECT_NE(id, a);
  EXPECT_FALSE(sim.Cancel(a));
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(SimulatorTest, RepeatCallbackCancelSelfThenCancelAgainIsFalse) {
  Simulator sim;
  int ticks = 0;
  EventId series = kInvalidEventId;
  bool first_cancel = false;
  series = sim.RepeatEvery(SimTime::Millis(1), [&] {
    if (++ticks == 2) first_cancel = sim.Cancel(series);
  });
  sim.Run();
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(first_cancel);
  EXPECT_FALSE(sim.Cancel(series));
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, RepeatCallbackMayCancelAnotherSeries) {
  // Cancelling series B from inside series A's callback, including when
  // B's next occurrence is queued at the very timestamp of the cancel.
  Simulator sim;
  int a_ticks = 0, b_ticks = 0;
  EventId b = sim.RepeatEvery(SimTime::Millis(10), [&] { ++b_ticks; });
  sim.RepeatEvery(SimTime::Millis(5), [&] {
    if (++a_ticks == 2) sim.Cancel(b);  // at t=10ms
  });
  sim.RunUntil(SimTime::Millis(50));
  // At t=10ms B's tick carries the older sequence number, so it fires
  // once before A's cancel runs; after that the series is dead.
  EXPECT_EQ(b_ticks, 1);
  EXPECT_GE(a_ticks, 9);
}

TEST(SimulatorTest, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.ScheduleAfter(SimTime::Micros(i), [] {});
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

}  // namespace
}  // namespace tdr::sim
