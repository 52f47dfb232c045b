#ifndef TDR_FAULT_FAULT_PLAN_H_
#define TDR_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace tdr::fault {

/// One scheduled fault event. Plans are data, not behaviour: a plan plus
/// a seed fully determines every fault a run experiences, which is what
/// makes chaos runs replayable bit-for-bit.
struct FaultAction {
  enum class Kind {
    kCrash,          // node `a` fails (volatile state lost, log survives)
    kRestart,        // node `a` recovers from its log and rejoins
    kCutLink,        // link (a, b) goes down
    kHealLink,       // link (a, b) comes back
    kPartition,      // named partition: `group` is split from the rest
    kHealPartition,  // the named partition heals
    kChaosOn,        // probabilistic message faults start
    kChaosOff,       // probabilistic message faults stop
  };

  SimTime at;
  Kind kind = Kind::kCrash;
  NodeId a = kInvalidNodeId;
  NodeId b = kInvalidNodeId;
  std::string name;            // partition actions only
  std::vector<NodeId> group;   // kPartition only: the isolated side

  std::string ToString() const;
};

/// Probabilistic per-message fault profile, active while chaos is on.
/// Probabilities are per transmission; draws come from the injector's
/// own seeded RNG stream, so the fault pattern is a pure function of
/// (seed, plan) and the deterministic message order.
struct ChaosProfile {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double delay_probability = 0.0;
  /// Extra delay drawn uniformly from (0, max_extra_delay].
  SimTime max_extra_delay = SimTime::Zero();

  bool empty() const {
    return drop_probability <= 0.0 && duplicate_probability <= 0.0 &&
           delay_probability <= 0.0;
  }
};

/// A deterministic schedule of faults plus an optional probabilistic
/// profile. Built fluently:
///
///   FaultPlan plan;
///   plan.CrashAt(SimTime::Seconds(5), 2)
///       .RestartAt(SimTime::Seconds(15), 2)
///       .PartitionAt(SimTime::Seconds(8), "split", {0, 1})
///       .HealPartitionAt(SimTime::Seconds(20), "split")
///       .WithChaos({.drop_probability = 0.01});
///
/// If the profile is nonempty and no explicit kChaosOn action exists,
/// chaos is active for the whole run.
class FaultPlan {
 public:
  FaultPlan& CrashAt(SimTime t, NodeId node);
  FaultPlan& RestartAt(SimTime t, NodeId node);
  FaultPlan& CutLinkAt(SimTime t, NodeId a, NodeId b);
  FaultPlan& HealLinkAt(SimTime t, NodeId a, NodeId b);
  FaultPlan& PartitionAt(SimTime t, std::string name,
                         std::vector<NodeId> group);
  FaultPlan& HealPartitionAt(SimTime t, std::string name);
  FaultPlan& ChaosOnAt(SimTime t);
  FaultPlan& ChaosOffAt(SimTime t);
  FaultPlan& WithChaos(ChaosProfile profile);

  const std::vector<FaultAction>& actions() const { return actions_; }
  const ChaosProfile& chaos() const { return chaos_; }

  /// True if chaos should be on from t=0 (nonempty profile, no explicit
  /// on/off schedule).
  bool ChaosAlwaysOn() const;

  /// True if every crash has a later restart, every cut link a later
  /// heal and every partition a later heal — a well-formed plan for
  /// convergence testing (the system must be whole again at the end).
  bool EndsHealed() const;

  /// Generates a random well-formed plan over `num_nodes` nodes within
  /// `horizon`: 0-2 crash/restart pairs, 0-2 named partitions with
  /// heals, possibly a chaos window with small drop/dup/delay rates.
  /// Every fault heals before `horizon`, so EndsHealed() is true.
  static FaultPlan Random(Rng* rng, std::uint32_t num_nodes,
                          SimTime horizon);

  std::string ToString() const;

 private:
  std::vector<FaultAction> actions_;
  ChaosProfile chaos_;
};

}  // namespace tdr::fault

#endif  // TDR_FAULT_FAULT_PLAN_H_
