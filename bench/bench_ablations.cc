// Ablations for the model's stated simplifications (DESIGN.md §5):
//
//  A1 — "Access to objects is equi-probable (there are no hotspots)":
//       Zipfian skew concentrates conflicts and inflates deadlock rates
//       far above the uniform-access model.
//  A2 — "it ignores the message propagation delays": adding delay to
//       lazy-group replication widens the conflict window and raises the
//       reconciliation rate, as §4 warns.
//  A3 — arrival process: the model is agnostic; Poisson vs deterministic
//       arrivals barely move the measured rates (burstiness is
//       second-order at these utilizations), supporting the model's
//       indifference.

#include <cstdio>

#include "bench/harness.h"
#include "util/logging.h"

namespace tdr::bench {
namespace {

SimOutcome RunWith(SchemeKind kind, double zipf_theta, double delay_s,
                   bool poisson) {
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 2000;
  copts.action_time = SimTime::Seconds(0.01);
  copts.seed = 31;
  copts.net.delay = SimTime::Seconds(delay_s);
  Cluster cluster(copts);
  ClusterScheme built = MakeScheme(&cluster, kind);
  LazyGroupScheme* lazy = built.lazy_group;
  ProgramGenerator::Options gopts;
  gopts.db_size = copts.db_size;
  gopts.actions = 4;
  gopts.zipf_theta = zipf_theta;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  SimOutcome out;
  for (NodeId origin = 0; origin < 3; ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = 10;
    aopts.poisson = poisson;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster.sim(), aopts, rng.Fork(),
        [&out, s = built.scheme.get(), &gen, origin, gen_rng]() {
          ++out.submitted;
          s->Submit(origin, gen.Next(*gen_rng), nullptr);
        }));
    arrivals.back()->Start();
  }
  const double kWindow = 600;
  cluster.sim().RunUntil(SimTime::Seconds(kWindow));
  for (auto& a : arrivals) a->Stop();
  out.seconds = kWindow;
  out.deadlocks = cluster.executor().deadlocked();
  out.waits = cluster.metrics().Get("lock.waits");
  out.reconciliations = lazy != nullptr ? lazy->reconciliations() : 0;
  return out;
}

}  // namespace

void Main() {
  PrintBanner("A1-A3", "Model-assumption ablations",
              "Stated simplifications of the Section 2 model");

  std::printf("A1 — hotspots (eager group, N=3, DB=2000, TPS=10/node):\n");
  std::printf("%12s | %12s | %12s\n", "access", "deadlocks/s", "waits/s");
  for (double theta : {0.0, 0.5, 0.9, 0.99}) {
    SimOutcome out = RunWith(SchemeKind::kEagerGroup, theta, 0, true);
    std::printf("%12s | %12.4f | %12.3f\n",
                theta == 0.0 ? "uniform"
                             : StrPrintf("zipf %.2f", theta).c_str(),
                out.deadlock_rate(), out.wait_rate());
  }
  std::printf("Skew concentrates conflicts on hot objects: the model's\n"
              "equi-probable assumption is a BEST case.\n\n");

  std::printf("A2 — message delay (lazy group, N=3):\n");
  std::printf("%12s | %14s\n", "delay", "reconcile/s");
  for (double delay : {0.0, 0.1, 1.0, 5.0}) {
    SimOutcome out = RunWith(SchemeKind::kLazyGroup, 0.0, delay, true);
    std::printf("%11.1fs | %14.4f\n", delay, out.reconciliation_rate());
  }
  std::printf("\"As with eager replication, if message propagation times\n"
              "were added, the reconciliation rate would rise.\" (§4)\n\n");

  std::printf("A3 — arrival process (eager group, N=3):\n");
  for (bool poisson : {true, false}) {
    SimOutcome out = RunWith(SchemeKind::kEagerGroup, 0.0, 0, poisson);
    std::printf("%13s: deadlocks/s = %.4f, waits/s = %.3f\n",
                poisson ? "Poisson" : "deterministic", out.deadlock_rate(),
                out.wait_rate());
  }
  std::printf("Burstiness is second-order at model-regime utilization.\n\n");

  // A4 — deadlock detection mechanism: the model assumes instant,
  // perfect wait-for-graph detection; production systems mostly use lock
  // timeouts. Timeouts trade detection latency (victims burn the whole
  // timeout before dying) against false positives (long honest waits
  // killed). Measured on a contended eager-group cluster.
  std::printf("A4 — deadlock detection: wait-for graph vs lock timeout "
              "(eager group, N=3, hot DB):\n");
  std::printf("%22s | %9s | %9s | %10s | %8s\n", "mechanism", "commit/s",
              "aborts/s", "timeouts/s", "stuck");
  auto run_detection = [](bool graph, double timeout_s) {
    Cluster::Options copts;
    copts.num_nodes = 3;
    copts.db_size = 300;
    copts.action_time = SimTime::Seconds(0.01);
    copts.seed = 47;
    copts.detect_deadlock_cycles = graph;
    Cluster cluster(copts);
    EagerGroupScheme::Options sopts;
    sopts.wait_timeout = SimTime::Seconds(timeout_s);
    EagerGroupScheme scheme(&cluster, sopts);
    ProgramGenerator::Options gopts;
    gopts.db_size = copts.db_size;
    gopts.actions = 4;
    ProgramGenerator gen(gopts);
    Rng rng = cluster.ForkRng();
    std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
    for (NodeId origin = 0; origin < 3; ++origin) {
      OpenLoopArrivals::Options aopts;
      aopts.tps = 8;
      auto gen_rng = std::make_shared<Rng>(rng.Fork());
      arrivals.push_back(std::make_unique<OpenLoopArrivals>(
          &cluster.sim(), aopts, rng.Fork(),
          [&scheme, &gen, origin, gen_rng]() {
            scheme.Submit(origin, gen.Next(*gen_rng), nullptr);
          }));
      arrivals.back()->Start();
    }
    const double kWindow = 400;
    cluster.sim().RunUntil(SimTime::Seconds(kWindow));
    for (auto& a : arrivals) a->Stop();
    struct R {
      double commit, aborts, timeouts;
      std::size_t stuck;
    };
    return R{cluster.executor().committed() / kWindow,
             cluster.executor().deadlocked() / kWindow,
             cluster.executor().wait_timeouts() / kWindow,
             cluster.executor().ActiveCount()};
  };
  {
    auto g = run_detection(true, 0);
    std::printf("%22s | %9.2f | %9.4f | %10.4f | %8zu\n",
                "wait-for graph", g.commit, g.aborts, 0.0, g.stuck);
    for (double timeout : {0.5, 2.0, 10.0}) {
      auto t = run_detection(false, timeout);
      std::printf("%18s %3.1fs | %9.2f | %9.4f | %10.4f | %8zu\n",
                  "timeout", timeout, t.commit, t.aborts, t.timeouts,
                  t.stuck);
    }
  }
  std::printf(
      "A tight timeout approximates the graph detector (honest waits\n"
      "here are short, so few false positives). As the timeout grows,\n"
      "deadlock cycles survive longer, open-loop arrivals convoy behind\n"
      "the clogged queues, and the cluster collapses — at 10s nearly\n"
      "every transaction dies of timeout and hundreds are still stuck\n"
      "at the end. The instant graph detector, the model's assumption,\n"
      "is the detection-latency limit the timeouts approach from below.\n\n");

  // A5 — ownership placement: round-robin masters vs the Data Cycle
  // architecture ("a single master node for all objects", §7 citing
  // Herman et al.). Same lazy-master machinery, different Ownership map.
  std::printf("A5 — master placement: round-robin vs Data Cycle single "
              "master (lazy master, N=4):\n");
  auto run_placement = [](bool single_master) {
    Cluster::Options copts;
    copts.num_nodes = 4;
    copts.db_size = 600;
    copts.action_time = SimTime::Seconds(0.01);
    copts.seed = 53;
    Cluster cluster(copts);
    std::vector<NodeId> all = {0, 1, 2, 3};
    Ownership own = single_master
                        ? Ownership::SingleMaster(copts.db_size, 0)
                        : Ownership::RoundRobin(copts.db_size, all);
    LazyMasterScheme scheme(&cluster, &own);
    ProgramGenerator::Options gopts;
    gopts.db_size = copts.db_size;
    gopts.actions = 4;
    ProgramGenerator gen(gopts);
    Rng rng = cluster.ForkRng();
    std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
    for (NodeId origin = 0; origin < 4; ++origin) {
      OpenLoopArrivals::Options aopts;
      aopts.tps = 8;
      auto gen_rng = std::make_shared<Rng>(rng.Fork());
      arrivals.push_back(std::make_unique<OpenLoopArrivals>(
          &cluster.sim(), aopts, rng.Fork(),
          [&scheme, &gen, origin, gen_rng]() {
            scheme.Submit(origin, gen.Next(*gen_rng), nullptr);
          }));
      arrivals.back()->Start();
    }
    const double kWindow = 600;
    cluster.sim().RunUntil(SimTime::Seconds(kWindow));
    for (auto& a : arrivals) a->Stop();
    struct R {
      double deadlocks, waits;
      bool converged;
    };
    cluster.sim().Run(10'000'000);
    return R{cluster.executor().deadlocked() / kWindow,
             cluster.metrics().Get("lock.waits") / kWindow,
             cluster.Converged()};
  };
  {
    auto rr = run_placement(false);
    auto dc = run_placement(true);
    std::printf("  round-robin masters: deadlocks/s = %.4f, waits/s = "
                "%.3f, converged = %s\n",
                rr.deadlocks, rr.waits, rr.converged ? "yes" : "no");
    std::printf("  Data Cycle (node 0): deadlocks/s = %.4f, waits/s = "
                "%.3f, converged = %s\n",
                dc.deadlocks, dc.waits, dc.converged ? "yes" : "no");
  }
  std::printf(
      "The deadlock/wait arithmetic is the same (Eq. 19 does not care\n"
      "where the masters sit), but Data Cycle funnels ALL update work\n"
      "through one node — in a real deployment that node's capacity,\n"
      "not the lock conflict rate, is the wall. The two-tier scheme is\n"
      "'similar to, but more general than, the Data Cycle architecture'\n"
      "(§7) precisely because masters can be spread, even onto mobiles.\n");
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }
