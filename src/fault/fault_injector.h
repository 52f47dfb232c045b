#ifndef TDR_FAULT_FAULT_INJECTOR_H_
#define TDR_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "net/network.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tdr::fault {

/// Executes a FaultPlan against a cluster, deterministically.
///
/// Scheduled actions become ordinary simulator events (so they order
/// with everything else by (time, seq)); probabilistic message faults
/// are applied through the Network's MessageInterceptor hook using a
/// dedicated RNG stream forked from the cluster seed. Identical
/// (seed, plan) pairs therefore produce byte-identical runs — the
/// property the replay tests assert.
///
/// Partitions compose: each active partition (or manual link cut)
/// contributes one "separation" to every link it severs, and a link is
/// physically down while its separation count is nonzero. Overlapping
/// named partitions thus heal correctly in any order.
class FaultInjector : public Network::MessageInterceptor {
 public:
  FaultInjector(Cluster* cluster, FaultPlan plan, Rng rng);

  /// Detaches the interceptor and cancels pending scheduled actions.
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every plan action on the simulator and attaches the
  /// message interceptor. Call once, before running the workload.
  void Arm();

  /// Cancels pending actions, stops chaos and detaches the interceptor.
  /// Already-applied faults (partitions, crashes) stay in force.
  void Disarm();

  // Immediate fault API — tests drive these directly; the scheduled
  // plan actions call the same entry points.
  void Crash(NodeId node);
  void Restart(NodeId node);
  void CutLink(NodeId a, NodeId b);
  void HealLink(NodeId a, NodeId b);
  void StartPartition(const std::string& name, std::vector<NodeId> group);
  void HealPartition(const std::string& name);
  void SetChaosActive(bool active);

  /// Heals every partition and manual cut, restarts every node this
  /// injector crashed, and stops chaos — the end-of-run "heal the
  /// world" step before convergence checks.
  void HealAll();

  bool chaos_active() const { return chaos_active_; }
  // The cluster's `fault.injected_*` counts (one injector per cluster).
  std::uint64_t injected_drops() const {
    return cluster_->metrics().Get("fault.injected_drops");
  }
  std::uint64_t injected_duplicates() const {
    return cluster_->metrics().Get("fault.injected_duplicates");
  }
  std::uint64_t injected_delays() const {
    return cluster_->metrics().Get("fault.injected_delays");
  }

  /// Human-readable log of every fault applied so far, one line each
  /// with its event time — the trace attached to invariant violations.
  std::string AppliedLogString() const;

  /// Observer invoked once per applied fault, at the fault's simulated
  /// time, with the log entry (before the "[t=...]" prefix is added).
  /// ChromeTraceWriter::OnFault plugs in here to put faults on their
  /// own trace track. Null detaches.
  using FaultObserver = std::function<void(SimTime, const std::string&)>;
  void set_observer(FaultObserver observer) {
    observer_ = std::move(observer);
  }

  // Network::MessageInterceptor:
  Network::InterceptVerdict OnTransmit(NodeId from, NodeId to) override;

 private:
  void Apply(const FaultAction& action);
  void Separate(NodeId a, NodeId b, int delta);
  void Log(std::string entry);

  Cluster* cluster_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  bool chaos_active_ = false;
  // Separation count per unordered node pair (a < b).
  std::map<std::pair<NodeId, NodeId>, int> separation_;
  std::map<std::string, std::vector<NodeId>> active_partitions_;
  std::vector<NodeId> crashed_by_us_;
  std::vector<sim::EventId> scheduled_;
  std::vector<std::string> applied_log_;
  FaultObserver observer_;
};

}  // namespace tdr::fault

#endif  // TDR_FAULT_FAULT_INJECTOR_H_
