#ifndef TDR_BENCH_HARNESS_H_
#define TDR_BENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytic/fit.h"
#include "analytic/model.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "sim/sweep_runner.h"
#include "workload/workload.h"

namespace tdr::bench {

/// Which replication strategy a simulation run uses.
enum class SchemeKind {
  kEagerGroup,
  kEagerGroupParallel,  // footnote-2 ablation: parallel replica updates
  kEagerGroupReadLocks, // "true serialization" ablation
  kEagerMaster,
  kLazyGroup,
  kLazyMaster,
};

std::string_view SchemeKindName(SchemeKind kind);

/// One simulated run of the Table-2 workload model under a scheme.
struct SimConfig {
  SchemeKind kind = SchemeKind::kEagerGroup;
  std::uint32_t nodes = 3;
  std::uint64_t db_size = 2000;   // DB_Size
  double tps = 20;                // TPS per node
  std::uint32_t actions = 4;      // Actions per transaction
  double action_time = 0.05;      // Action_Time (seconds)
  double sim_seconds = 200;       // measurement window
  std::uint64_t seed = 42;
  OpMix mix = OpMix::AllWrites();

  // Sharded + batched data plane (the bench_sharding knobs).
  /// Range shards of the key space (Cluster::Options::num_shards);
  /// 1 = the unsharded plane.
  std::uint32_t num_shards = 1;
  /// Lazy-scheme batch flush window in seconds; 0 with
  /// batch_max_updates 0 = per-commit shipping (one batch per commit).
  double batch_flush_window = 0;
  /// Lazy-scheme batch size cap (updates per stream); 0 = unbounded.
  std::uint64_t batch_max_updates = 0;
  /// Hot/cold shard skew: fraction of object picks landing in the
  /// first `hot_shards` shards. 0 (or hot_shards 0) = uniform.
  double hot_fraction = 0;
  std::uint32_t hot_shards = 0;
  /// Shard view the WORKLOAD skew is expressed in; 0 = num_shards.
  /// Setting it explicitly holds the hot span fixed while a sweep
  /// varies the cluster's num_shards.
  std::uint32_t skew_shards = 0;

  // Fault injection (src/fault). When any knob is set, the run
  // executes under a deterministic FaultPlan with the invariant checker
  // armed; an unacknowledged invariant violation aborts the benchmark
  // (the robustness gate). The fault RNG stream is independent of the
  // workload stream, so a faulted run is replayable from (seed, knobs).
  double fault_drop_probability = 0.0;  // per-message drop rate
  bool fault_partition_cycle = false;   // one partition/heal mid-window
  /// Crash the last node at sim_seconds/3 and restart it at
  /// 2*sim_seconds/3 — the WAL recovery scenario (works under kOff too,
  /// exercising the legacy durable-store model).
  bool fault_crash_cycle = false;

  // Durability / WAL (src/wal). kOff keeps the legacy crash model;
  // kCommit/kGroup put a per-node WAL under the commit path and route
  // crash recovery through it.
  DurabilityMode durability = DurabilityMode::kOff;
  double wal_flush_latency = 0.0005;  // seconds per simulated fsync
  double wal_group_window = 0.00025;  // group-commit window (seconds)
  std::uint64_t wal_group_max_records = 64;
  std::uint64_t wal_segment_bytes = 64 * 1024;
  std::string wal_dir;  // empty = in-memory WAL backend
  /// File backend only: real fdatasync when the durable line moves.
  bool wal_fsync = false;

  // Real-threads runtime (src/runtime). Both backends order events by
  // the same virtual (time, seq) key, so a (seed, config) pair is
  // bit-identical across them — the differential suite's oracle
  // property.
  /// Execution backend for the cluster's event loop.
  RuntimeBackend backend = RuntimeBackend::kSim;
  /// If true, drain all in-flight traffic after the measurement window
  /// (flush batch planes, run the event loop dry, lazy-master
  /// catch-up) before capturing digests — faulted runs always drain.
  bool drain = false;
  /// If true, arm the invariant checker even on fault-free runs and
  /// report its verdict in SimOutcome (differential suite's second
  /// oracle channel).
  bool run_invariant_checker = false;
};

struct SimOutcome {
  double seconds = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t deadlocks = 0;        // user-transaction deadlock victims
  std::uint64_t waits = 0;            // user-transaction lock waits
  std::uint64_t reconciliations = 0;  // lazy-group timestamp conflicts
  std::uint64_t unavailable = 0;
  std::uint64_t replica_deadlocks = 0;
  std::uint64_t replica_applied = 0;
  std::uint64_t divergent_slots = 0;  // replica divergence at end
  std::uint64_t batches_shipped = 0;  // BatchShipper flushes
  std::uint64_t updates_coalesced = 0;  // updates absorbed by compaction
  std::uint64_t injected_drops = 0;   // messages lost to fault injection
  std::uint64_t invariant_violations = 0;  // always 0 unless aborted
  std::uint64_t delusion_slots = 0;   // lazy-group unrepairable divergence
  std::uint64_t wal_records = 0;      // WAL records appended (all nodes)
  std::uint64_t wal_flushes = 0;      // WAL flush (fsync) events
  std::uint64_t wal_recoveries = 0;   // crash recoveries performed
  std::uint64_t wal_replayed = 0;     // records replayed by recovery
  /// Order-sensitive digest of every node's store (values + virtual
  /// timestamps) at the end of the run — the cross-backend equivalence
  /// fingerprint.
  std::uint64_t state_digest = 0;
  /// Per-shard digests, shard-major then node order (num_shards *
  /// nodes entries) — the fine-grained twin of state_digest.
  std::vector<std::uint64_t> shard_digests;
  /// kThreads only: events executed on worker threads (deterministic —
  /// a function of the event schedule, not of thread timing).
  std::uint64_t runtime_dispatched = 0;
  /// kThreads only: wall-seconds per sim-second actually achieved
  /// (nondeterministic; excluded from any equivalence comparison).
  double wall_sim_ratio = 0;
  /// Deterministic snapshot of the cluster's full registry.
  obs::MetricsSnapshot metrics;

  double Rate(std::uint64_t count) const {
    return seconds > 0 ? static_cast<double>(count) / seconds : 0;
  }
  double deadlock_rate() const { return Rate(deadlocks); }
  double wait_rate() const { return Rate(waits); }
  double reconciliation_rate() const { return Rate(reconciliations); }
};

/// Runs the uniform open-loop workload under `config` and returns the
/// measured rates.
SimOutcome RunScheme(const SimConfig& config);

/// Canonical name of the fault plan `config` runs under ("none" when
/// clean, else e.g. "drop=0.05+partition+crash"). Report rows carry it
/// so tools/diff_digests.py compares faulted runs only against the
/// same faulted runs on the other backend.
std::string FaultPlanName(const SimConfig& config);

/// Options for a parallel sweep of independent simulation runs.
struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned threads = 0;
};

/// Runs every config (each with its own seed) through RunScheme on a
/// thread pool and returns the outcomes in config order. Each run owns
/// its Simulator, so results are deterministic regardless of thread
/// count or schedule.
std::vector<SimOutcome> RunSweep(const std::vector<SimConfig>& configs,
                                 SweepOptions options = {});

/// Maps a SimConfig onto the analytic model's parameters.
analytic::ModelParams ToModelParams(const SimConfig& config);

/// Measured growth exponent for "rate ~ nodes^k" claims; forwards to
/// analytic::FitPowerLawExponent (see analytic/fit.h for the full fit).
using analytic::FitPowerLawExponent;

/// Banner printing shared by all experiment binaries.
void PrintBanner(const char* experiment_id, const char* title,
                 const char* paper_ref);

/// Starts a RunReport pre-filled with `config` (one bench convention:
/// every per-sweep-point SimConfig is also recorded in its row).
obs::RunReport MakeReport(std::string experiment, const SimConfig& config);

/// One report row holding `config`'s sweep knobs and `out`'s rates —
/// the machine-readable twin of the printed table row.
obs::Json ReportRow(const SimConfig& config, const SimOutcome& out);

/// Writes `report` to `path` (under the current working directory by
/// convention: BENCH_<name>.json), logging on failure.
void WriteReport(const obs::RunReport& report, const std::string& path);

}  // namespace tdr::bench

#endif  // TDR_BENCH_HARNESS_H_
