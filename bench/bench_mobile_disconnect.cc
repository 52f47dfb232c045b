// E8 — Equations (15)-(18): the mobile / disconnected case of lazy-group
// replication. "Suppose that the typical node is disconnected most of
// the time ... It is as though the message propagation time was 24
// hours." Pending update sets grow with Disconnect_Time x TPS x Actions,
// and the reconciliation rate grows QUADRATICALLY in both the disconnect
// time and the node count.
//
// Each node cycles: disconnected for D seconds (accumulating local
// updates and queued inbound traffic), then connected for a short
// exchange window. We sweep D and N and compare against Eqs. (15)-(18).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "net/network.h"

namespace tdr::bench {
namespace {

struct MobileResult {
  double outbound_per_cycle;   // Eq. (15) measured
  double collisions_per_cycle; // Eq. (17) measured (conflicts per node-cycle)
  double reconciliation_rate;  // Eq. (18) measured (/s)
};

MobileResult RunMobile(std::uint32_t nodes, double disconnect_seconds,
                       double tps, std::uint32_t actions,
                       std::uint64_t db_size, double sim_seconds) {
  Cluster::Options copts;
  copts.num_nodes = nodes;
  copts.db_size = db_size;
  copts.action_time = SimTime::Millis(1);
  copts.seed = 17;
  Cluster cluster(copts);
  LazyGroupScheme scheme(&cluster);

  ProgramGenerator::Options gopts;
  gopts.db_size = db_size;
  gopts.actions = actions;
  gopts.mix = OpMix::AllWrites();
  ProgramGenerator generator(gopts);

  Rng rng = cluster.ForkRng();
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (NodeId origin = 0; origin < nodes; ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = tps;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster.sim(), aopts, rng.Fork(),
        [&scheme, &generator, origin, gen_rng]() {
          scheme.Submit(origin, generator.Next(*gen_rng), nullptr);
        }));
    arrivals.back()->Start();
  }

  // Mobile connectivity: mostly disconnected, brief exchange windows,
  // staggered so exchanges are pairwise-overlapping rather than lockstep.
  const double window = std::max(1.0, disconnect_seconds * 0.1);
  std::vector<std::unique_ptr<ConnectivitySchedule>> schedules;
  std::uint64_t cycles_total = 0;
  for (NodeId id = 0; id < nodes; ++id) {
    ConnectivitySchedule::Options sopts;
    sopts.time_between_disconnects = SimTime::Seconds(window);
    sopts.disconnected_time = SimTime::Seconds(disconnect_seconds);
    sopts.start_disconnected = true;
    schedules.push_back(std::make_unique<ConnectivitySchedule>(
        &cluster.sim(), &cluster.net(), id, sopts, rng.Fork()));
    ConnectivitySchedule* sched = schedules.back().get();
    double offset =
        disconnect_seconds * static_cast<double>(id) / nodes;
    cluster.sim().ScheduleAt(SimTime::Seconds(offset),
                             [sched]() { sched->Start(); });
  }

  cluster.sim().RunUntil(SimTime::Seconds(sim_seconds));
  for (auto& a : arrivals) a->Stop();
  for (auto& s : schedules) {
    cycles_total += s->cycles();
    s->Stop();
  }

  MobileResult r{};
  double cycles = std::max<double>(1, cycles_total);
  // Outbound set per cycle ~ distinct updates a node accumulated while
  // disconnected ~ committed root txns per node-cycle x actions.
  r.outbound_per_cycle =
      static_cast<double>(cluster.executor().committed()) * actions /
      std::max<double>(1, cycles);
  r.collisions_per_cycle =
      static_cast<double>(scheme.reconciliations()) / cycles;
  r.reconciliation_rate =
      static_cast<double>(scheme.reconciliations()) / sim_seconds;
  return r;
}

}  // namespace

void Main() {
  PrintBanner("E8", "Mobile nodes: disconnect-time reconciliation",
              "Equations (15)-(18) (p. 179)");
  const double kTps = 2;
  const std::uint32_t kActions = 2;
  const std::uint64_t kDb = 20000;

  std::printf("TPS=%.0f/node Actions=%u DB_Size=%llu; each node is\n"
              "disconnected for D seconds per cycle with a D/10 exchange "
              "window.\n\n",
              kTps, kActions, (unsigned long long)kDb);

  std::printf("Sweep 1: disconnect time D at N=4 nodes\n");
  std::printf("%7s | %-23s | %-23s\n", "",
              "outbound/cycle (Eq.15)", "reconciliation rate (/s)");
  std::printf("%7s | %11s %11s | %11s %11s\n", "D (s)", "model", "measured",
              "Eq.(18)", "measured");
  std::printf("--------+-------------------------+----------------------"
              "---\n");
  std::vector<std::pair<double, double>> d_points;
  for (double d : {20.0, 40.0, 80.0, 160.0}) {
    MobileResult r = RunMobile(4, d, kTps, kActions, kDb, 40 * d);
    analytic::ModelParams p;
    p.db_size = kDb;
    p.nodes = 4;
    p.tps = kTps;
    p.actions = kActions;
    p.disconnected_time = d;
    std::printf("%7.0f | %11.1f %11.1f | %11.5f %11.5f\n", d,
                analytic::MobileOutboundUpdates(p), r.outbound_per_cycle,
                analytic::MobileReconciliationRate(p),
                r.reconciliation_rate);
    d_points.emplace_back(d, r.reconciliation_rate);
  }
  std::printf("Measured growth exponent in D: %.2f (model: 1.00 for the "
              "rate;\nthe per-cycle collision count grows as D^2, Eq. 17)\n",
              FitPowerLawExponent(d_points));

  std::printf("\nSweep 2: node count N at D=60s\n");
  std::printf("%5s | %11s %11s\n", "nodes", "Eq.(18)", "measured");
  std::printf("------+------------------------\n");
  std::vector<std::pair<double, double>> n_points;
  for (std::uint32_t n : {2u, 4u, 8u}) {
    MobileResult r = RunMobile(n, 60, kTps, kActions, kDb, 2400);
    analytic::ModelParams p;
    p.db_size = kDb;
    p.nodes = n;
    p.tps = kTps;
    p.actions = kActions;
    p.disconnected_time = 60;
    std::printf("%5u | %11.5f %11.5f\n", n,
                analytic::MobileReconciliationRate(p),
                r.reconciliation_rate);
    n_points.emplace_back(n, r.reconciliation_rate);
  }
  std::printf(
      "Measured growth exponent in N: %.2f (model: ~2.00 — \"the\n"
      "quadratic nature of this equation suggests a system that performs\n"
      "well on a few nodes may become unstable as the system scales\")\n",
      FitPowerLawExponent(n_points));

  // Corollary: BATCHED asynchronous shipping is a self-inflicted
  // disconnection. Eq. (18) with Disconnect_Time := batch window prices
  // the reconciliation cost of batching the replication stream — all
  // nodes stay connected the whole time. Each stream's window opens at
  // its first pending update; no size cap, no coalescing.
  std::printf("\nSweep 3: lazy-group batch window B at N=4, always "
              "connected\n");
  std::printf("%7s | %11s %11s\n", "B (s)", "Eq.(18)*", "measured");
  std::printf("--------+------------------------\n");
  std::vector<std::pair<double, double>> b_points;
  for (double batch : {5.0, 10.0, 20.0, 40.0}) {
    Cluster::Options copts;
    copts.num_nodes = 4;
    copts.db_size = kDb;
    copts.action_time = SimTime::Millis(1);
    copts.seed = 19;
    Cluster cluster(copts);
    LazyGroupScheme::Options lopts;
    lopts.batch = {SimTime::Seconds(batch), 0, false};
    LazyGroupScheme scheme(&cluster, lopts);
    ProgramGenerator::Options gopts;
    gopts.db_size = kDb;
    gopts.actions = kActions;
    ProgramGenerator gen(gopts);
    Rng rng = cluster.ForkRng();
    std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
    for (NodeId origin = 0; origin < 4; ++origin) {
      OpenLoopArrivals::Options aopts;
      aopts.tps = kTps;
      auto gen_rng = std::make_shared<Rng>(rng.Fork());
      arrivals.push_back(std::make_unique<OpenLoopArrivals>(
          &cluster.sim(), aopts, rng.Fork(),
          [&scheme, &gen, origin, gen_rng]() {
            scheme.Submit(origin, gen.Next(*gen_rng), nullptr);
          }));
      arrivals.back()->Start();
    }
    double window = 60 * batch;
    cluster.sim().RunUntil(SimTime::Seconds(window));
    for (auto& a : arrivals) a->Stop();
    analytic::ModelParams p;
    p.db_size = kDb;
    p.nodes = 4;
    p.tps = kTps;
    p.actions = kActions;
    p.disconnected_time = batch;
    double measured =
        static_cast<double>(scheme.reconciliations()) / window;
    std::printf("%7.0f | %11.5f %11.5f\n", batch,
                analytic::MobileReconciliationRate(p), measured);
    b_points.emplace_back(batch, measured);
  }
  std::printf("(* Eq. 18 evaluated with Disconnect_Time = B.)\n"
              "Measured growth exponent in B: %.2f (model 1.00): batching\n"
              "your replication stream buys the mobile node's conflict "
              "bill.\n",
              FitPowerLawExponent(b_points));
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }
