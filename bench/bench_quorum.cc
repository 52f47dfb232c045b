// Quorum availability study — the §3 availability mechanism ("eager
// replication systems allow updates among members of the quorum or
// cluster", citing Gifford's weighted voting).
//
// Measures, across failure patterns on a 5-node cluster:
//  * write availability (fraction of submitted transactions that could
//    run) for plain eager vs majority-quorum eager;
//  * correctness: quorum reads always return the latest committed value
//    (r + w > v) and no committed increment is ever lost, even with
//    nodes leaving and rejoining mid-run;
//  * the catch-up volume rejoining replicas absorb.

#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "net/network.h"
#include "obs/run_report.h"
#include "replication/quorum.h"

namespace tdr::bench {
namespace {

struct AvailResult {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t unavailable = 0;
  std::int64_t final_value = 0;
  std::int64_t committed_delta = 0;
  std::uint64_t catch_up = 0;

  double availability() const {
    return submitted > 0
               ? static_cast<double>(committed) /
                     static_cast<double>(submitted)
               : 0;
  }
};

AvailResult Run(bool quorum_mode, double disconnect_seconds) {
  Cluster::Options copts;
  copts.num_nodes = 5;
  copts.db_size = 64;
  copts.action_time = SimTime::Millis(5);
  copts.seed = 13;
  Cluster cluster(copts);
  ClusterScheme built = MakeScheme(
      &cluster, quorum_mode ? SchemeKind::kQuorum : SchemeKind::kEagerGroup);
  ReplicationScheme* scheme = built.scheme.get();
  QuorumEagerScheme* quorum = built.quorum;

  Rng rng = cluster.ForkRng();
  AvailResult result;
  // Nodes 3 and 4 cycle connectivity (a rolling minority failure).
  std::vector<std::unique_ptr<ConnectivitySchedule>> schedules;
  for (NodeId id : {3u, 4u}) {
    ConnectivitySchedule::Options sopts;
    sopts.time_between_disconnects = SimTime::Seconds(disconnect_seconds);
    sopts.disconnected_time = SimTime::Seconds(disconnect_seconds);
    sopts.exponential = true;
    schedules.push_back(std::make_unique<ConnectivitySchedule>(
        &cluster.sim(), &cluster.net(), id, sopts, rng.Fork()));
    schedules.back()->Start();
  }
  // Increment workload from the three stable nodes.
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  for (NodeId origin = 0; origin < 3; ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = 5;
    auto gen_rng = std::make_shared<Rng>(rng.Fork());
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster.sim(), aopts, rng.Fork(),
        [&result, s = scheme, origin, gen_rng]() {
          ++result.submitted;
          ObjectId oid = gen_rng->UniformInt(64);
          s->Submit(origin, Program({Op::Add(oid, 1)}),
                    [&result](const TxnResult& r) {
                      if (r.outcome == TxnOutcome::kCommitted) {
                        ++result.committed;
                        ++result.committed_delta;
                      } else if (r.outcome == TxnOutcome::kUnavailable) {
                        ++result.unavailable;
                      }
                    });
        }));
    arrivals.back()->Start();
  }
  cluster.sim().RunUntil(SimTime::Seconds(300));
  for (auto& a : arrivals) a->Stop();
  for (auto& s : schedules) s->Stop();
  cluster.net().SetConnected(3, true);
  cluster.net().SetConnected(4, true);
  cluster.sim().Run();

  // Total of all objects via quorum reads (or node 0 for plain eager).
  for (ObjectId oid = 0; oid < 64; ++oid) {
    if (quorum != nullptr) {
      auto latest = quorum->ReadLatest(oid);
      result.final_value += latest.ok() ? latest->AsScalar() : 0;
    } else {
      result.final_value +=
          cluster.node(0)->store().GetUnchecked(oid).AsScalar();
    }
  }
  if (quorum != nullptr) result.catch_up = quorum->catch_up_objects();
  return result;
}

}  // namespace

void Main() {
  PrintBanner("Q1", "Quorum availability under rolling failures",
              "Section 3 availability discussion (Gifford voting)");
  std::printf("5 nodes, nodes 3-4 cycling with mean up=down=D, 15 "
              "increments/s submitted for 300s.\n\n");
  std::printf("%6s | %-26s | %-26s\n", "",
              "plain eager (all-or-nothing)", "majority quorum (w=3)");
  std::printf("%6s | %9s %9s %6s | %9s %9s %6s %8s\n", "D (s)", "avail",
              "commit", "lost", "avail", "commit", "lost", "catchup");
  std::printf("-------+----------------------------+------------------"
              "-----------------\n");
  obs::RunReport report("quorum");
  report.SetConfig("nodes", obs::Json(5))
      .SetConfig("db_size", obs::Json(64))
      .SetConfig("tps_total", obs::Json(15.0))
      .SetConfig("window_seconds", obs::Json(300.0));
  std::int64_t total_lost = 0;
  for (double d : {10.0, 30.0, 120.0}) {
    AvailResult plain = Run(false, d);
    AvailResult quorum = Run(true, d);
    std::printf("%6.0f | %8.1f%% %9llu %6lld | %8.1f%% %9llu %6lld "
                "%8llu\n",
                d, 100 * plain.availability(),
                (unsigned long long)plain.committed,
                (long long)(plain.committed_delta - plain.final_value),
                100 * quorum.availability(),
                (unsigned long long)quorum.committed,
                (long long)(quorum.committed_delta - quorum.final_value),
                (unsigned long long)quorum.catch_up);
    for (int mode = 0; mode < 2; ++mode) {
      const AvailResult& r = mode == 0 ? plain : quorum;
      std::int64_t lost = r.committed_delta - r.final_value;
      total_lost += mode == 1 ? lost : 0;  // only quorum promises zero
      obs::Json row = obs::Json::Object();
      row.Set("scheme", obs::Json(mode == 0 ? "eager_group" : "quorum"))
          .Set("disconnect_seconds", obs::Json(d))
          .Set("submitted", obs::Json(r.submitted))
          .Set("committed", obs::Json(r.committed))
          .Set("unavailable", obs::Json(r.unavailable))
          .Set("availability", obs::Json(r.availability()))
          .Set("lost_increments", obs::Json(lost))
          .Set("catch_up_objects", obs::Json(r.catch_up));
      report.AddRow(std::move(row));
    }
  }
  report.SetInvariants(obs::Json::Object().Set(
      "quorum_lost_increments_total", obs::Json(total_lost)));
  WriteReport(report, "BENCH_quorum.json");
  std::printf(
      "\nPlain eager refuses all updates whenever anyone is down; the\n"
      "majority quorum stays ~100%% available through minority failures\n"
      "and loses nothing: rejoining replicas catch up and quorum reads\n"
      "always intersect the last write quorum. 'Lost' compares the sum\n"
      "of committed increments with the database total (0 = exact).\n");
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }
