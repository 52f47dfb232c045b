#ifndef TDR_REPLICATION_DRIVER_H_
#define TDR_REPLICATION_DRIVER_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "replication/cluster.h"
#include "replication/scheme.h"
#include "workload/workload.h"

namespace tdr {

/// Drives the Table-2 workload model against a cluster + scheme: one
/// open-loop arrival process per node (each with its own deterministic
/// RNG stream), uniform transaction generation, a fixed window. It
/// measures nothing itself: every count the window produces is in the
/// cluster's registry (RunScheme reads them there).
///
///   Cluster cluster(copts);
///   LazyGroupScheme scheme(&cluster);
///   WorkloadDriver driver(&cluster, &scheme, opts);
///   driver.Run();
///   std::uint64_t committed = cluster.executor().committed();
class WorkloadDriver {
 public:
  struct Options {
    double tps_per_node = 10;                 // TPS (Table 2)
    ProgramGenerator::Options workload;       // Actions, mix, access skew
    double seconds = 300;                     // window
  };

  /// `cluster` and `scheme` must outlive the driver. The workload's
  /// db_size is forced to the cluster's.
  WorkloadDriver(Cluster* cluster, ReplicationScheme* scheme,
                 Options options);

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Runs the window (RunUntil seconds of simulated time) and stops the
  /// arrival processes. Work in flight at the window's end is left to
  /// the caller (drain it with the runtime's Run()).
  void Run();

  /// Transactions submitted so far: the sum of the per-node
  /// `driver.submitted{node=*}` cells.
  std::uint64_t submitted() const;

 private:
  Cluster* cluster_;
  ReplicationScheme* scheme_;
  Options options_;
  ProgramGenerator generator_;
  /// Reused per arrival (single-threaded sim): programs are regenerated
  /// in place instead of allocated per transaction.
  Program program_scratch_;
  /// Metric handles resolved once (label strings allocate); reused by
  /// every window, so arrivals count without allocating.
  std::vector<obs::MetricsRegistry::Counter> submitted_at_;
  obs::MetricsRegistry::Counter skipped_crashed_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_DRIVER_H_
