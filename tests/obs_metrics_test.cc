// MetricsRegistry and TimeSeriesRecorder units: handle caching, label
// interning, deterministic snapshot order, Welford/histogram merge
// parity, and sim-clock sampling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace tdr::obs {
namespace {

// --- Handles ----------------------------------------------------------

TEST(MetricsRegistryTest, HandleCachingSharesOneCell) {
  MetricsRegistry reg;
  MetricsRegistry::Counter a = reg.GetCounter("txn.committed");
  MetricsRegistry::Counter b = reg.GetCounter("txn.committed");
  a.Increment();
  b.Increment(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.Get("txn.committed"), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, DefaultHandlesAreNoOps) {
  MetricsRegistry::Counter counter;
  MetricsRegistry::Gauge gauge;
  MetricsRegistry::HistogramHandle hist;
  MetricsRegistry::StatsHandle stats;
  counter.Increment();
  gauge.Set(3.0);
  gauge.Add(1.0);
  hist.Record(10);
  stats.Record(1.5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.histogram(), nullptr);
  EXPECT_EQ(stats.stats(), nullptr);
}

TEST(MetricsRegistryTest, HandlesSurviveFurtherRegistrations) {
  MetricsRegistry reg;
  MetricsRegistry::Counter first = reg.GetCounter("a.first");
  // Push enough registrations to force slab growth; the deque never
  // relocates, so `first` must stay valid.
  for (int i = 0; i < 1000; ++i) {
    reg.GetCounter("filler." + std::to_string(i));
  }
  first.Increment(7);
  EXPECT_EQ(reg.Get("a.first"), 7u);
}

// --- Label interning --------------------------------------------------

TEST(MetricsRegistryTest, LabeledHandlesShareCellPerLabelSet) {
  MetricsRegistry reg;
  MetricsRegistry::Counter n0 =
      reg.GetCounter("driver.submitted", {{"node", "0"}});
  MetricsRegistry::Counter n0_again =
      reg.GetCounter("driver.submitted", {{"node", "0"}});
  MetricsRegistry::Counter n1 =
      reg.GetCounter("driver.submitted", {{"node", "1"}});
  n0.Increment();
  n0_again.Increment();
  n1.Increment(10);
  EXPECT_EQ(reg.Get("driver.submitted{node=0}"), 2u);
  EXPECT_EQ(reg.Get("driver.submitted{node=1}"), 10u);
  EXPECT_EQ(reg.label_sets_interned(), 2u);
}

TEST(MetricsRegistryTest, LabelKeysCanonicalizeSorted) {
  MetricsRegistry reg;
  MetricsRegistry::Counter ab =
      reg.GetCounter("m", {{"b", "2"}, {"a", "1"}});
  MetricsRegistry::Counter ba =
      reg.GetCounter("m", {{"a", "1"}, {"b", "2"}});
  ab.Increment();
  ba.Increment();
  // Both orders intern to one canonical suffix with sorted keys.
  EXPECT_EQ(reg.Get("m{a=1,b=2}"), 2u);
  EXPECT_EQ(reg.label_sets_interned(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

// --- Deterministic snapshots ------------------------------------------

TEST(MetricsRegistryTest, SnapshotSortedRegardlessOfRegistrationOrder) {
  MetricsRegistry forward, backward;
  const std::vector<std::string> names = {"zeta", "alpha", "mid.point",
                                          "alpha{node=2}"};
  for (auto it = names.begin(); it != names.end(); ++it) {
    forward.Increment(*it);
  }
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    backward.Increment(*it);
  }
  MetricsSnapshot a = forward.Snapshot();
  MetricsSnapshot b = backward.Snapshot();
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
    if (i > 0) {
      EXPECT_LT(a.metrics[i - 1].name, a.metrics[i].name);
    }
  }
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(MetricsRegistryTest, ProfileExcludedFromSnapshotByDefault) {
  MetricsRegistry reg;
  reg.GetCounter("txn.committed").Increment();
  reg.GetProfile("profile.event_loop").Record(12.5);
  MetricsSnapshot deterministic = reg.Snapshot();
  EXPECT_EQ(deterministic.Find("profile.event_loop"), nullptr);
  EXPECT_NE(deterministic.Find("txn.committed"), nullptr);

  SnapshotOptions with_profile;
  with_profile.include_profile = true;
  MetricsSnapshot full = reg.Snapshot(with_profile);
  const MetricValue* prof = full.Find("profile.event_loop");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->kind, MetricKind::kProfile);
  EXPECT_EQ(prof->stats.count(), 1u);
}

// Only the thread runtime records wall-clock (profile) metrics, once at
// Shutdown; reading the host clock costs more than a lock acquire or a
// replica apply, so no per-operation path records one. A sim cluster
// with metrics on that runs eager-group and sharded lazy-group traffic
// therefore holds no profile metric at all.
TEST(MetricsRegistryTest, TrafficRecordsNoProfileMetric) {
  for (bool eager : {true, false}) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 64;
    copts.num_shards = 4;
    copts.action_time = SimTime::Millis(5);
    copts.seed = 7;
    Cluster cluster(copts);
    std::unique_ptr<ReplicationScheme> scheme;
    if (eager) {
      scheme = std::make_unique<EagerGroupScheme>(&cluster);
    } else {
      scheme = std::make_unique<LazyGroupScheme>(&cluster);
    }
    ProgramGenerator::Options gopts;
    gopts.db_size = copts.db_size;
    gopts.actions = 4;
    ProgramGenerator gen(gopts);
    Rng rng = cluster.ForkRng();
    for (int round = 0; round < 50; ++round) {
      for (NodeId origin = 0; origin < copts.num_nodes; ++origin) {
        scheme->Submit(origin, gen.Next(rng), nullptr);
      }
      cluster.sim().RunUntil(cluster.sim().Now() + SimTime::Millis(20));
    }
    cluster.sim().Run();

    const MetricsRegistry& reg = cluster.metrics();
    EXPECT_GT(reg.Get("txn.committed"), 0u);
    if (!eager) {
      // Batches spanning several shards fanned out per shard.
      EXPECT_GT(reg.Get("replica.shard_applied{shard=0}"), 0u);
      EXPECT_GT(reg.Get("replica.shard_applied{shard=3}"), 0u);
    }
    SnapshotOptions with_profile;
    with_profile.include_profile = true;
    for (const MetricValue& m : reg.Snapshot(with_profile).metrics) {
      EXPECT_NE(m.kind, MetricKind::kProfile)
          << m.name << (eager ? " (eager group)" : " (lazy group)");
    }
  }
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandlesValid) {
  MetricsRegistry reg;
  MetricsRegistry::Counter c = reg.GetCounter("c");
  MetricsRegistry::Gauge g = reg.GetGauge("g");
  c.Increment(3);
  g.Set(9.0);
  reg.Reset();
  EXPECT_EQ(reg.Get("c"), 0u);
  EXPECT_EQ(reg.Value("g"), 0.0);
  c.Increment();
  g.Add(2.0);
  EXPECT_EQ(reg.Get("c"), 1u);
  EXPECT_EQ(reg.Value("g"), 2.0);
}

// --- TimeSeriesRecorder -----------------------------------------------

TEST(TimeSeriesRecorderTest, CumulativeAndRateChannels) {
  sim::Simulator sim;
  MetricsRegistry reg;
  MetricsRegistry::Counter events = reg.GetCounter("events");

  TimeSeriesRecorder::Options opts;
  opts.interval = SimTime::Seconds(1);
  TimeSeriesRecorder recorder(&sim, &reg, opts);
  recorder.Track("events");
  recorder.TrackRate("events");

  // 2 events in second one, 3 in second two, none in second three.
  for (int i = 0; i < 2; ++i) {
    sim.ScheduleAt(SimTime::Millis(100 + i), [&]() { events.Increment(); });
  }
  for (int i = 0; i < 3; ++i) {
    sim.ScheduleAt(SimTime::Millis(1100 + i), [&]() { events.Increment(); });
  }
  recorder.Start();
  sim.RunUntil(SimTime::Millis(3500));
  recorder.Stop();

  TimeSeries series = recorder.Series();
  EXPECT_EQ(series.interval_seconds, 1.0);
  ASSERT_EQ(series.channels.size(), 2u);
  ASSERT_EQ(series.samples(), 3u);
  const TimeSeries::Channel* cumulative = nullptr;
  const TimeSeries::Channel* rate = nullptr;
  for (const auto& ch : series.channels) {
    (ch.rate ? rate : cumulative) = &ch;
  }
  ASSERT_NE(cumulative, nullptr);
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(cumulative->values, (std::vector<double>{2, 5, 5}));
  EXPECT_EQ(rate->values, (std::vector<double>{2, 3, 0}));
}

TEST(TimeSeriesRecorderTest, ChannelsSortedByName) {
  sim::Simulator sim;
  MetricsRegistry reg;
  reg.Increment("zeta");
  reg.Increment("alpha");
  TimeSeriesRecorder recorder(&sim, &reg);
  recorder.Track("zeta");
  recorder.Track("alpha");
  recorder.Start();
  sim.RunUntil(SimTime::Seconds(2));
  recorder.Stop();
  TimeSeries series = recorder.Series();
  ASSERT_EQ(series.channels.size(), 2u);
  EXPECT_EQ(series.channels[0].name, "alpha");
  EXPECT_EQ(series.channels[1].name, "zeta");
}

}  // namespace
}  // namespace tdr::obs
