#ifndef TDR_FAULT_RUN_SCHEME_H_
#define TDR_FAULT_RUN_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "replication/cluster.h"
#include "replication/scheme_factory.h"
#include "txn/durability.h"
#include "workload/workload.h"

namespace tdr {

/// One simulated run of the Table-2 workload model under a scheme, with
/// optional faults. Everything a run produces is a pure function of this
/// struct: two runs with equal configs are bit-identical.
struct SimConfig {
  SchemeKind kind = SchemeKind::kEagerGroup;
  /// Nodes; under kTwoTier the base nodes, beside two mobile ones.
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

  // Fault injection (src/fault). A faulted run (any knob set, or a
  // non-empty plan) is also a checked run. The fault RNG stream is
  // independent of the workload stream, so a faulted run is replayable
  // from (seed, knobs, plan).
  double fault_drop_probability = 0.0;  // per-message drop rate
  bool fault_partition_cycle = false;   // one partition/heal mid-window
  /// Crash the last node at sim_seconds/3 and restart it at
  /// 2*sim_seconds/3 — the WAL recovery scenario (works under kOff too,
  /// exercising the legacy durable-store model).
  bool fault_crash_cycle = false;
  /// Any further faults, e.g. a ChaosCatalog() plan; the knobs above
  /// add theirs to it.
  fault::FaultPlan plan;

  // Durability / WAL (src/wal). kOff keeps the legacy crash model;
  // kCommit/kGroup put a per-node WAL under the commit path and route
  // crash recovery through it, with WalSet::Options' default flush
  // latency, group window and segment size.
  DurabilityMode durability = DurabilityMode::kOff;
  std::string wal_dir;  // empty = in-memory WAL backend

  /// Execution backend for the cluster's event loop. Both backends
  /// order events by the same virtual (time, seq) key, so a config is
  /// bit-identical across them — the differential suites' oracle
  /// property.
  RuntimeBackend backend = RuntimeBackend::kSim;
  /// Check the run: arm the invariant checker (sweeping every
  /// sim_seconds/20) for the window, then heal every fault, drain all
  /// traffic, run the schemes' anti-entropy and the final check before
  /// taking digests. Faulted runs are always checked.
  bool check_invariants = false;

  /// If non-empty, write a Chrome trace-event JSON of the run here
  /// (load in https://ui.perfetto.dev): per-node transaction slices,
  /// commit -> replica-apply flow arrows, faults on their own track.
  std::string trace_path;
  /// If non-empty, write the run's RunReport (schema
  /// tdr.run_report.v1) here: config, one row, the metrics snapshot,
  /// committed/applied time series and the invariant summary.
  std::string report_path;
};

struct SimOutcome {
  double seconds = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t deadlocks = 0;        // user-transaction deadlock victims
  std::uint64_t waits = 0;            // user-transaction lock waits
  std::uint64_t reconciliations = 0;  // timestamp conflicts in the window
  std::uint64_t unavailable = 0;
  std::uint64_t replica_deadlocks = 0;
  std::uint64_t replica_applied = 0;
  std::uint64_t divergent_slots = 0;  // replica divergence at window end
  std::uint64_t batches_shipped = 0;  // BatchShipper flushes
  std::uint64_t updates_coalesced = 0;  // updates absorbed by compaction
  /// Objects lazy master or quorum refreshed by anti-entropy.
  std::uint64_t catch_up_objects = 0;
  /// Whether every replica (two-tier: every base replica) holds the
  /// same values at the end of the run.
  bool converged = false;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t net_held = 0;

  // Checked runs only (SimConfig::check_invariants, or faulted).
  /// Always 0 in a returned outcome: an invariant violation aborts the
  /// run, and the checker prints each one with its fault history.
  std::uint64_t violations = 0;
  std::uint64_t delusion_slots = 0;   // lazy-group unrepairable divergence
  std::uint64_t injected_drops = 0;   // messages lost to fault injection
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_delays = 0;
  std::string fault_log;              // FaultInjector::AppliedLogString

  std::uint64_t wal_records = 0;      // WAL records appended (all nodes)
  std::uint64_t wal_flushes = 0;      // WAL flush (fsync) events
  std::uint64_t wal_recoveries = 0;   // crash recoveries performed
  std::uint64_t wal_replayed = 0;     // records replayed by recovery

  // Two-tier ledger (kTwoTier only).
  std::uint64_t tentative_submitted = 0;
  std::uint64_t base_committed = 0;
  std::uint64_t base_rejected = 0;

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
  /// Deterministic snapshot of the cluster's full registry.
  obs::MetricsSnapshot metrics;

  double Rate(std::uint64_t count) const {
    return seconds > 0 ? static_cast<double>(count) / seconds : 0;
  }
  double deadlock_rate() const { return Rate(deadlocks); }
  double wait_rate() const { return Rate(waits); }
  double reconciliation_rate() const { return Rate(reconciliations); }

  /// Order-sensitive digest of the final state and the counters a
  /// chaos replay compares: the window's submitted, committed,
  /// deadlocks, unavailable and reconciliations, plus every anti-entropy,
  /// checker, network, injector and two-tier counter (not the textual
  /// log, nor waits, replica, batch or WAL counts).
  std::uint64_t Fingerprint() const;

  std::string ToString() const;
};

/// Runs `config` end to end:
///   1. build the cluster and scheme (MakeScheme), or the two-tier
///      system, which runs its own disconnect-cycle workload;
///   2. for a checked run, arm the fault injector and invariant checker;
///   3. drive the workload for the window;
///   4. for a checked run, heal, drain, run anti-entropy and the final
///      invariant check;
///   5. take digests and counters, and write the trace and report.
/// An invariant violation aborts the process when the run returns
/// (InvariantChecker's destructor prints each one): a bench under
/// faults is a correctness gate, and a chaos test fails loudly.
SimOutcome RunScheme(const SimConfig& config);

/// Starts a RunReport whose config section holds `config` (every bench
/// row's sweep point, and RunScheme's own report).
obs::RunReport MakeReport(std::string experiment, const SimConfig& config);

}  // namespace tdr

#endif  // TDR_FAULT_RUN_SCHEME_H_
