#ifndef TDR_FAULT_CHAOS_SCENARIOS_H_
#define TDR_FAULT_CHAOS_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "obs/metrics.h"
#include "util/sim_time.h"

namespace tdr::workload {

/// Configuration of one chaos run: a scheme, a workload window, and a
/// fault plan. Everything downstream is a pure function of this struct,
/// so two runs with equal configs are bit-identical.
struct ChaosConfig {
  fault::SchemeClass scheme = fault::SchemeClass::kEagerGroup;
  std::uint32_t num_nodes = 4;
  std::uint64_t db_size = 200;
  double tps_per_node = 20.0;
  double seconds = 30.0;
  std::uint64_t seed = 42;
  SimTime action_time = SimTime::Millis(1);
  /// Invariant sweep period (zero disables periodic sweeps; the final
  /// check always runs).
  SimTime check_interval = SimTime::Seconds(1);
  fault::FaultPlan plan;
  /// If non-empty, write a Chrome trace-event JSON of the run here
  /// (load in https://ui.perfetto.dev): per-node transaction slices,
  /// commit -> replica-apply flow arrows, faults on their own track.
  std::string trace_path;
  /// If non-empty, write a RunReport JSON (schema tdr.run_report.v1)
  /// here: config, metrics snapshot, committed/applied time series, and
  /// the invariant summary.
  std::string report_path;
};

/// Everything a chaos run produces. `Fingerprint()` folds the final
/// store digests and every counter that matters into one value — the
/// replay tests assert fingerprints match across reruns and across
/// SweepRunner thread counts.
struct ChaosOutcome {
  std::uint64_t state_digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t reconciliations = 0;
  std::uint64_t delusion_slots = 0;
  std::uint64_t catch_up_objects = 0;
  std::uint64_t violations = 0;
  std::vector<fault::Violation> violation_list;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t net_held = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_delays = 0;
  bool converged = false;
  std::string fault_log;
  // Two-tier ledger.
  std::uint64_t tentative_submitted = 0;
  std::uint64_t base_committed = 0;
  std::uint64_t base_rejected = 0;
  /// Deterministic metrics snapshot taken after the final drain — the
  /// full registry, not just the headline counters above.
  obs::MetricsSnapshot metrics;

  /// Order-sensitive digest over the final state and all counters above
  /// (violation details and the textual log excluded).
  std::uint64_t Fingerprint() const;

  std::string ToString() const;
};

/// Runs one complete chaos experiment:
///   1. arm the fault injector (plan) and the invariant checker;
///   2. drive the workload for the configured window;
///   3. heal every fault, drain all queues, run scheme anti-entropy;
///   4. run the final invariant check (convergence / delusion / ledger).
/// All violations are acknowledged into the outcome (the caller decides
/// whether they are fatal), so RunChaos itself never aborts.
ChaosOutcome RunChaos(const ChaosConfig& config);

/// A named, reusable fault plan shape, parameterized by cluster size
/// and run length.
struct ChaosScenario {
  const char* name;
  const char* description;
  fault::FaultPlan (*plan)(std::uint32_t num_nodes, SimTime horizon);
};

/// The scenario catalog: partition-during-commit, master crash
/// mid-propagation, flaky network (drop+dup+delay), duplicate-delivery
/// reconnect storm, and the acceptance-criterion crash+partition+drop
/// combo.
const std::vector<ChaosScenario>& ChaosCatalog();

/// Catalog lookup by name; aborts on unknown names (test-time misuse).
const ChaosScenario& FindScenario(const std::string& name);

}  // namespace tdr::workload

#endif  // TDR_FAULT_CHAOS_SCENARIOS_H_
