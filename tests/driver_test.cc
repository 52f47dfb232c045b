#include "replication/driver.h"

#include <gtest/gtest.h>

#include "replication/eager.h"
#include "replication/lazy_group.h"

namespace tdr {
namespace {

Cluster::Options SmallOptions() {
  Cluster::Options o;
  o.num_nodes = 2;
  o.db_size = 64;
  o.action_time = SimTime::Millis(2);
  o.seed = 8;
  return o;
}

WorkloadDriver::Options DriverOptions(double tps, double seconds) {
  WorkloadDriver::Options o;
  o.tps_per_node = tps;
  o.workload.actions = 2;
  o.seconds = seconds;
  return o;
}

TEST(WorkloadDriverTest, DrivesExpectedArrivalVolume) {
  Cluster cluster(SmallOptions());
  EagerGroupScheme scheme(&cluster);
  WorkloadDriver driver(&cluster, &scheme, DriverOptions(10, 100));
  driver.Run();
  // 2 nodes x 10 tps x 100 s = 2000 expected (Poisson, so +-~3 sigma).
  EXPECT_NEAR(driver.submitted(), 2000, 150);
  EXPECT_EQ(driver.submitted(),
            cluster.metrics().Get("driver.submitted{node=0}") +
                cluster.metrics().Get("driver.submitted{node=1}"));
  EXPECT_GT(cluster.executor().committed(), 1500u);
  EXPECT_EQ(cluster.sim().Now(), SimTime::Seconds(100));
  EXPECT_EQ(cluster.metrics().Get("scheme.unavailable"), 0u);
}

TEST(WorkloadDriverTest, DeterministicAcrossIdenticalSetups) {
  auto run = [] {
    Cluster cluster(SmallOptions());
    EagerGroupScheme scheme(&cluster);
    WorkloadDriver driver(&cluster, &scheme, DriverOptions(10, 50));
    driver.Run();
    return std::make_pair(driver.submitted(), cluster.executor().committed());
  };
  EXPECT_EQ(run(), run());
}

// Lazy group counts its reconciliations into the registry, and its
// accessor reads that cell.
TEST(WorkloadDriverTest, RoutesReconciliationsFromLazyGroup) {
  Cluster::Options copts = SmallOptions();
  copts.db_size = 8;  // tiny: conflicts guaranteed
  Cluster cluster(copts);
  LazyGroupScheme scheme(&cluster);
  WorkloadDriver driver(&cluster, &scheme, DriverOptions(20, 100));
  driver.Run();
  EXPECT_GT(scheme.reconciliations(), 0u);
  EXPECT_EQ(scheme.reconciliations(),
            cluster.metrics().Get("lazy_group.reconciliations"));
  EXPECT_GT(cluster.DivergentSlots(), 0u);
}

}  // namespace
}  // namespace tdr
