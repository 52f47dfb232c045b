#include "storage/timestamp.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace tdr {
namespace {

// A slot hands timestamps out by value, so assigning to a temporary must
// not compile; the type stays a one-word, trivially copyable literal type.
static_assert(!std::is_assignable_v<Timestamp, Timestamp>);
static_assert(!std::is_assignable_v<Timestamp, const Timestamp&>);
static_assert(std::is_assignable_v<Timestamp&, Timestamp>);
static_assert(std::is_trivially_copyable_v<Timestamp>);
static_assert(sizeof(Timestamp) == 8);
static_assert(Timestamp(3, 2).word() == (3u << kTimestampNodeBits | 2));
static_assert(Timestamp(3, 2).counter() == 3 && Timestamp(3, 2).node() == 2);
static_assert(Timestamp(2, 9) < Timestamp(3, 0));
static_assert([] {
  Timestamp t;
  t = Timestamp(7, 1);
  return t == Timestamp(7, 1);
}());

TEST(TimestampTest, ZeroOrdersFirst) {
  EXPECT_TRUE(Timestamp::Zero().IsZero());
  EXPECT_LT(Timestamp::Zero(), Timestamp(1, 0));
  EXPECT_LT(Timestamp::Zero(), Timestamp(1, 5));
}

TEST(TimestampTest, TotalOrderCounterFirstNodeBreaksTies) {
  EXPECT_LT(Timestamp(1, 9), Timestamp(2, 0));
  EXPECT_LT(Timestamp(3, 1), Timestamp(3, 2));
  EXPECT_GT(Timestamp(3, 2), Timestamp(3, 1));
  EXPECT_LE(Timestamp(3, 1), Timestamp(3, 1));
  EXPECT_GE(Timestamp(3, 1), Timestamp(3, 1));
}

TEST(TimestampTest, Equality) {
  EXPECT_EQ(Timestamp(4, 2), Timestamp(4, 2));
  EXPECT_NE(Timestamp(4, 2), Timestamp(4, 3));
  EXPECT_NE(Timestamp(4, 2), Timestamp(5, 2));
}

TEST(TimestampTest, ToString) {
  EXPECT_EQ(Timestamp(12, 3).ToString(), "12@3");
}

TEST(LamportClockTest, TickIncrements) {
  LamportClock clock(2);
  Timestamp t1 = clock.Tick();
  Timestamp t2 = clock.Tick();
  EXPECT_EQ(t1, Timestamp(1, 2));
  EXPECT_EQ(t2, Timestamp(2, 2));
  EXPECT_LT(t1, t2);
}

TEST(LamportClockTest, ObserveAdvancesPastRemote) {
  LamportClock clock(0);
  clock.Tick();  // counter = 1
  clock.Observe(Timestamp(10, 3));
  EXPECT_EQ(clock.Tick(), Timestamp(11, 0));
}

TEST(LamportClockTest, ObserveOlderIsNoOp) {
  LamportClock clock(1);
  clock.Tick();
  clock.Tick();  // counter = 2
  clock.Observe(Timestamp(1, 9));
  EXPECT_EQ(clock.Tick(), Timestamp(3, 1));
}

TEST(LamportClockTest, TimestampsUniqueAcrossClocks) {
  // Two clocks at different nodes can produce the same counter, but the
  // (counter, node) pair always differs.
  LamportClock a(0), b(1);
  Timestamp ta = a.Tick();
  Timestamp tb = b.Tick();
  EXPECT_NE(ta, tb);
  EXPECT_TRUE(ta < tb || tb < ta);
}

TEST(LamportClockTest, ReachesThePackedLimits) {
  LamportClock clock(kMaxTimestampNode);
  clock.Observe(Timestamp(kMaxTimestampCounter - 1, 0));
  EXPECT_EQ(clock.Tick(), Timestamp(kMaxTimestampCounter, kMaxTimestampNode));
}

TEST(LamportClockDeathTest, NodePastThePackedLimitAborts) {
  EXPECT_DEATH(LamportClock clock(kMaxTimestampNode + 1), "node id 65536");
}

TEST(LamportClockDeathTest, TickPastThePackedLimitAborts) {
  LamportClock clock(3);
  clock.Observe(Timestamp(kMaxTimestampCounter, 0));
  EXPECT_DEATH(clock.Tick(), "counter 140737488355328");
}

TEST(VersionVectorTest, EmptyVectorsEqual) {
  VersionVector a, b;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_FALSE(a.ConcurrentWith(b));
}

TEST(VersionVectorTest, IncrementAndGet) {
  VersionVector v;
  v.Increment(3);
  v.Increment(3);
  v.Increment(5);
  EXPECT_EQ(v.Get(3), 2u);
  EXPECT_EQ(v.Get(5), 1u);
  EXPECT_EQ(v.Get(7), 0u);
}

TEST(VersionVectorTest, DominatesStrict) {
  VersionVector a, b;
  a.Increment(0);
  a.Increment(1);
  b.Increment(0);
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_FALSE(a.ConcurrentWith(b));
}

TEST(VersionVectorTest, EqualVectorsDoNotDominate) {
  VersionVector a, b;
  a.Increment(0);
  b.Increment(0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
}

TEST(VersionVectorTest, ConcurrentDetection) {
  VersionVector a, b;
  a.Increment(0);
  b.Increment(1);
  EXPECT_TRUE(a.ConcurrentWith(b));
  EXPECT_TRUE(b.ConcurrentWith(a));
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
}

TEST(VersionVectorTest, MergeTakesComponentwiseMax) {
  VersionVector a, b;
  a.Increment(0);
  a.Increment(0);
  b.Increment(0);
  b.Increment(1);
  a.Merge(b);
  EXPECT_EQ(a.Get(0), 2u);
  EXPECT_EQ(a.Get(1), 1u);
  EXPECT_TRUE(a.Dominates(b));
}

TEST(VersionVectorTest, MergedVectorDominatesBothConcurrentInputs) {
  VersionVector a, b;
  a.Increment(0);
  b.Increment(1);
  VersionVector m = a;
  m.Merge(b);
  EXPECT_TRUE(m.Dominates(a));
  EXPECT_TRUE(m.Dominates(b));
}

TEST(VersionVectorTest, ZeroEntriesEquivalentToAbsent) {
  VersionVector a, b;
  a.BumpTo(4, 0);  // explicit zero
  EXPECT_EQ(a, b);
}

TEST(VersionVectorTest, ToStringSkipsZeros) {
  VersionVector v;
  v.Increment(2);
  v.BumpTo(9, 0);
  EXPECT_EQ(v.ToString(), "{2:1}");
}

}  // namespace
}  // namespace tdr
