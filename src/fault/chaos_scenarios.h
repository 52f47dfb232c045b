#ifndef TDR_FAULT_CHAOS_SCENARIOS_H_
#define TDR_FAULT_CHAOS_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "util/sim_time.h"

namespace tdr::workload {

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
