#include "fault/chaos_scenarios.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tdr::workload {

namespace {

// --- Scenario catalog ------------------------------------------------

fault::FaultPlan PlanPartitionDuringCommit(std::uint32_t n, SimTime h) {
  std::vector<NodeId> group;
  for (NodeId i = 0; i < n / 2; ++i) group.push_back(i);
  fault::FaultPlan plan;
  plan.PartitionAt(SimTime::Seconds(h.seconds() * 0.25), "split",
                   std::move(group))
      .HealPartitionAt(SimTime::Seconds(h.seconds() * 0.60), "split");
  return plan;
}

fault::FaultPlan PlanMasterCrash(std::uint32_t n, SimTime h) {
  fault::FaultPlan plan;
  NodeId victim = n > 1 ? 1 : 0;
  plan.CrashAt(SimTime::Seconds(h.seconds() * 0.30), victim)
      .RestartAt(SimTime::Seconds(h.seconds() * 0.70), victim);
  return plan;
}

fault::FaultPlan PlanFlakyNetwork(std::uint32_t, SimTime) {
  fault::FaultPlan plan;
  fault::ChaosProfile chaos;
  chaos.drop_probability = 0.01;
  chaos.duplicate_probability = 0.01;
  chaos.delay_probability = 0.02;
  chaos.max_extra_delay = SimTime::Millis(50);
  plan.WithChaos(chaos);
  return plan;
}

fault::FaultPlan PlanDupStormReconnect(std::uint32_t, SimTime) {
  fault::FaultPlan plan;
  fault::ChaosProfile chaos;
  chaos.duplicate_probability = 0.05;
  chaos.delay_probability = 0.05;
  chaos.max_extra_delay = SimTime::Millis(20);
  plan.WithChaos(chaos);
  return plan;
}

fault::FaultPlan PlanCrashPartitionDrop(std::uint32_t n, SimTime h) {
  fault::FaultPlan plan;
  NodeId victim = n > 1 ? 1 : 0;
  std::vector<NodeId> group = {static_cast<NodeId>(n - 1)};
  fault::ChaosProfile chaos;
  chaos.drop_probability = 0.01;
  plan.CrashAt(SimTime::Seconds(h.seconds() * 0.20), victim)
      .RestartAt(SimTime::Seconds(h.seconds() * 0.55), victim)
      .PartitionAt(SimTime::Seconds(h.seconds() * 0.35), "wedge",
                   std::move(group))
      .HealPartitionAt(SimTime::Seconds(h.seconds() * 0.70), "wedge")
      .WithChaos(chaos);
  return plan;
}

}  // namespace

const std::vector<ChaosScenario>& ChaosCatalog() {
  static const std::vector<ChaosScenario> kCatalog = {
      {"partition-during-commit",
       "named partition splits the cluster mid-window, heals later",
       &PlanPartitionDuringCommit},
      {"master-crash",
       "node 1 crashes mid-propagation (volatile buffers lost), restarts "
       "with log recovery",
       &PlanMasterCrash},
      {"flaky-network",
       "always-on 1% drop + 1% duplicate + 2% delay spikes",
       &PlanFlakyNetwork},
      {"dup-storm-reconnect",
       "5% duplicate delivery + delay jitter (idempotence under redelivery)",
       &PlanDupStormReconnect},
      {"crash-partition-drop",
       "crash + one partition/heal cycle + 1% message drop (the acceptance "
       "scenario)",
       &PlanCrashPartitionDrop},
  };
  return kCatalog;
}

const ChaosScenario& FindScenario(const std::string& name) {
  for (const ChaosScenario& s : ChaosCatalog()) {
    if (name == s.name) return s;
  }
  std::fprintf(stderr, "unknown chaos scenario: %s\n", name.c_str());
  std::abort();
}

}  // namespace tdr::workload
