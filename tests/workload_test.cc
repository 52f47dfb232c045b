#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "sim/simulator.h"

namespace tdr {
namespace {

ProgramGenerator::Options BaseOptions() {
  ProgramGenerator::Options o;
  o.db_size = 100;
  o.actions = 4;
  o.mix = OpMix::AllWrites();
  return o;
}

TEST(ProgramGeneratorTest, GeneratesRequestedActionCount) {
  ProgramGenerator gen(BaseOptions());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Program p = gen.Next(rng);
    EXPECT_EQ(p.size(), 4u);
    EXPECT_EQ(p.WriteActionCount(), 4u);
  }
}

TEST(ProgramGeneratorTest, DistinctObjectsWithinTransaction) {
  ProgramGenerator::Options o = BaseOptions();
  o.actions = 10;
  ProgramGenerator gen(o);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    Program p = gen.Next(rng);
    std::set<ObjectId> seen;
    for (const Op& op : p.ops()) {
      EXPECT_TRUE(seen.insert(op.oid).second) << "duplicate object";
      EXPECT_LT(op.oid, o.db_size);
    }
  }
}

TEST(ProgramGeneratorTest, UniformAccessCoversDatabase) {
  // The model's equi-probable access: all object ids should appear.
  ProgramGenerator::Options o = BaseOptions();
  o.db_size = 20;
  o.actions = 2;
  ProgramGenerator gen(o);
  Rng rng(3);
  std::set<ObjectId> seen;
  for (int i = 0; i < 2000; ++i) {
    Program p = gen.Next(rng);
    for (const Op& op : p.ops()) seen.insert(op.oid);
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(ProgramGeneratorTest, AllWritesMixProducesOnlyWrites) {
  ProgramGenerator gen(BaseOptions());
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Program p = gen.Next(rng);
    for (const Op& op : p.ops()) {
      EXPECT_EQ(op.type, OpType::kWrite);
    }
  }
}

TEST(ProgramGeneratorTest, CommutativeMixProducesCommutativePrograms) {
  ProgramGenerator::Options o = BaseOptions();
  o.mix = OpMix::AllCommutative();
  ProgramGenerator gen(o);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(gen.Next(rng).IsFullyCommutative());
  }
}

TEST(ProgramGeneratorTest, MixedFractionRoughlyRespected) {
  ProgramGenerator::Options o = BaseOptions();
  o.mix = OpMix::Mixed(0.6);
  o.actions = 1;
  ProgramGenerator gen(o);
  Rng rng(6);
  int commutative = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next(rng).op(0).IsCommutative()) ++commutative;
  }
  EXPECT_NEAR(commutative / static_cast<double>(kSamples), 0.6, 0.02);
}

TEST(ProgramGeneratorTest, OperandsWithinRange) {
  ProgramGenerator gen(BaseOptions());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Program p = gen.Next(rng);
    for (const Op& op : p.ops()) {
      EXPECT_GE(op.operand, 1);
      EXPECT_LE(op.operand, 100);
    }
  }
}

TEST(ProgramGeneratorTest, ZipfianSkewsAccess) {
  ProgramGenerator::Options o = BaseOptions();
  o.db_size = 1000;
  o.actions = 1;
  o.zipf_theta = 0.99;
  ProgramGenerator gen(o);
  Rng rng(8);
  int low = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next(rng).op(0).oid < 10) ++low;
  }
  EXPECT_GT(low / static_cast<double>(kSamples), 0.2);
}

TEST(ProgramGeneratorTest, ZipfianKeepsDistinctness) {
  ProgramGenerator::Options o = BaseOptions();
  o.db_size = 50;
  o.actions = 5;
  o.zipf_theta = 0.9;
  ProgramGenerator gen(o);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Program p = gen.Next(rng);
    std::set<ObjectId> seen;
    for (const Op& op : p.ops()) {
      EXPECT_TRUE(seen.insert(op.oid).second);
    }
  }
}

TEST(OpenLoopArrivalsTest, DeterministicRateExact) {
  sim::Simulator sim;
  int arrivals = 0;
  OpenLoopArrivals::Options o;
  o.tps = 10;       // every 100ms
  o.poisson = false;
  OpenLoopArrivals gen(&sim, o, Rng(1), [&] { ++arrivals; });
  gen.Start();
  sim.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(arrivals, 20);
  EXPECT_EQ(gen.arrivals(), 20u);
}

TEST(OpenLoopArrivalsTest, PoissonRateApproximate) {
  sim::Simulator sim;
  int arrivals = 0;
  OpenLoopArrivals::Options o;
  o.tps = 50;
  OpenLoopArrivals gen(&sim, o, Rng(2), [&] { ++arrivals; });
  gen.Start();
  sim.RunUntil(SimTime::Seconds(100));
  // 5000 expected; Poisson sd ~ 71.
  EXPECT_NEAR(arrivals, 5000, 300);
}

TEST(OpenLoopArrivalsTest, StopHaltsArrivals) {
  sim::Simulator sim;
  int arrivals = 0;
  OpenLoopArrivals::Options o;
  o.tps = 10;
  o.poisson = false;
  OpenLoopArrivals gen(&sim, o, Rng(3), [&] { ++arrivals; });
  gen.Start();
  sim.RunUntil(SimTime::Seconds(1));
  int at_stop = arrivals;
  gen.Stop();
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(arrivals, at_stop);
}

TEST(OpenLoopArrivalsTest, DestructionCancelsPendingArrival) {
  // The scheduled arrival event captures the generator; destroying a
  // stopped (or running) generator must cancel it so the simulator can
  // keep running safely afterwards.
  sim::Simulator sim;
  int arrivals = 0;
  {
    OpenLoopArrivals::Options o;
    o.tps = 10;
    o.poisson = false;
    OpenLoopArrivals gen(&sim, o, Rng(5), [&] { ++arrivals; });
    gen.Start();
    sim.RunUntil(SimTime::Millis(150));
    EXPECT_EQ(arrivals, 1);
  }  // destroyed with one arrival still pending
  sim.Run();  // must not touch freed memory (ASan-checked)
  EXPECT_EQ(arrivals, 1);
  EXPECT_TRUE(sim.Idle());
}

TEST(OpenLoopArrivalsTest, StopCancelsPendingEvent) {
  sim::Simulator sim;
  OpenLoopArrivals::Options o;
  o.tps = 10;
  o.poisson = false;
  int arrivals = 0;
  OpenLoopArrivals gen(&sim, o, Rng(6), [&] { ++arrivals; });
  gen.Start();
  EXPECT_EQ(sim.PendingEvents(), 1u);
  gen.Stop();
  EXPECT_EQ(sim.PendingEvents(), 0u);  // really cancelled, not a no-op
}

TEST(OpenLoopArrivalsTest, StartIsIdempotent) {
  sim::Simulator sim;
  int arrivals = 0;
  OpenLoopArrivals::Options o;
  o.tps = 10;
  o.poisson = false;
  OpenLoopArrivals gen(&sim, o, Rng(4), [&] { ++arrivals; });
  gen.Start();
  gen.Start();
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(arrivals, 10);  // not doubled
}

// Invalid Table-2 parameters abort with the offending value in every
// build: a TPS that is not positive and finite would re-arm arrivals at
// one instant forever, db_size 0 divides by zero, and actions above
// db_size wrap Floyd's sampler into empty programs.
void BuildArrivals(double tps) {
  sim::Simulator sim;
  OpenLoopArrivals::Options o;
  o.tps = tps;
  OpenLoopArrivals gen(&sim, o, Rng(1), [] {});
}

TEST(OpenLoopArrivalsDeathTest, RejectsATpsThatIsNotPositiveAndFinite) {
  EXPECT_DEATH(BuildArrivals(0), "tps 0 is not positive and finite");
  EXPECT_DEATH(BuildArrivals(-1), "tps -1 is not positive and finite");
  EXPECT_DEATH(BuildArrivals(std::nan("")), "tps -?nan is not positive");
  EXPECT_DEATH(BuildArrivals(std::numeric_limits<double>::infinity()),
               "tps inf is not positive and finite");
}

void BuildGenerator(std::uint64_t db_size, std::uint32_t actions) {
  ProgramGenerator::Options o = BaseOptions();
  o.db_size = db_size;
  o.actions = actions;
  ProgramGenerator gen(o);
}

TEST(ProgramGeneratorDeathTest, RejectsAnEmptyDatabase) {
  EXPECT_DEATH(BuildGenerator(0, 4), "db_size 0 is not positive");
}

TEST(ProgramGeneratorDeathTest, RejectsZeroActions) {
  EXPECT_DEATH(BuildGenerator(100, 0), "actions 0 is not positive");
}

TEST(ProgramGeneratorDeathTest, RejectsMoreActionsThanObjects) {
  EXPECT_DEATH(BuildGenerator(2, 4), "actions 4 exceed db_size 2");
  BuildGenerator(4, 4);  // every object once: allowed
}

}  // namespace
}  // namespace tdr
