#include "fault/fault_plan.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/logging.h"

namespace tdr::fault {

namespace {

const char* KindName(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kCrash: return "crash";
    case FaultAction::Kind::kRestart: return "restart";
    case FaultAction::Kind::kCutLink: return "cut-link";
    case FaultAction::Kind::kHealLink: return "heal-link";
    case FaultAction::Kind::kPartition: return "partition";
    case FaultAction::Kind::kHealPartition: return "heal-partition";
    case FaultAction::Kind::kChaosOn: return "chaos-on";
    case FaultAction::Kind::kChaosOff: return "chaos-off";
  }
  return "?";
}

}  // namespace

std::string FaultAction::ToString() const {
  std::string s = StrPrintf("t=%.3fs %s", at.seconds(), KindName(kind));
  switch (kind) {
    case Kind::kCrash:
    case Kind::kRestart:
      s += StrPrintf(" node=%u", a);
      break;
    case Kind::kCutLink:
    case Kind::kHealLink:
      s += StrPrintf(" link=(%u,%u)", a, b);
      break;
    case Kind::kPartition: {
      s += " \"" + name + "\" group={";
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (i > 0) s += ",";
        s += StrPrintf("%u", group[i]);
      }
      s += "}";
      break;
    }
    case Kind::kHealPartition:
      s += " \"" + name + "\"";
      break;
    case Kind::kChaosOn:
    case Kind::kChaosOff:
      break;
  }
  return s;
}

FaultPlan& FaultPlan::CrashAt(SimTime t, NodeId node) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kCrash;
  a.a = node;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::RestartAt(SimTime t, NodeId node) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kRestart;
  a.a = node;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::CutLinkAt(SimTime t, NodeId a, NodeId b) {
  FaultAction act;
  act.at = t;
  act.kind = FaultAction::Kind::kCutLink;
  act.a = a;
  act.b = b;
  actions_.push_back(std::move(act));
  return *this;
}

FaultPlan& FaultPlan::HealLinkAt(SimTime t, NodeId a, NodeId b) {
  FaultAction act;
  act.at = t;
  act.kind = FaultAction::Kind::kHealLink;
  act.a = a;
  act.b = b;
  actions_.push_back(std::move(act));
  return *this;
}

FaultPlan& FaultPlan::PartitionAt(SimTime t, std::string name,
                                  std::vector<NodeId> group) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kPartition;
  a.name = std::move(name);
  a.group = std::move(group);
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::HealPartitionAt(SimTime t, std::string name) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kHealPartition;
  a.name = std::move(name);
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::ChaosOnAt(SimTime t) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kChaosOn;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::ChaosOffAt(SimTime t) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kChaosOff;
  actions_.push_back(std::move(a));
  return *this;
}

FaultPlan& FaultPlan::WithChaos(ChaosProfile profile) {
  chaos_ = profile;
  return *this;
}

bool FaultPlan::ChaosAlwaysOn() const {
  if (chaos_.empty()) return false;
  for (const FaultAction& a : actions_) {
    if (a.kind == FaultAction::Kind::kChaosOn) return false;
  }
  return true;
}

bool FaultPlan::EndsHealed() const {
  std::map<NodeId, int> crashed;
  std::map<std::pair<NodeId, NodeId>, int> cut;
  std::map<std::string, int> parts;
  for (const FaultAction& a : actions_) {
    switch (a.kind) {
      case FaultAction::Kind::kCrash: ++crashed[a.a]; break;
      case FaultAction::Kind::kRestart: --crashed[a.a]; break;
      case FaultAction::Kind::kCutLink: ++cut[{a.a, a.b}]; break;
      case FaultAction::Kind::kHealLink: --cut[{a.a, a.b}]; break;
      case FaultAction::Kind::kPartition: ++parts[a.name]; break;
      case FaultAction::Kind::kHealPartition: --parts[a.name]; break;
      default: break;
    }
  }
  for (const auto& [k, v] : crashed) {
    if (v > 0) return false;
  }
  for (const auto& [k, v] : cut) {
    if (v > 0) return false;
  }
  for (const auto& [k, v] : parts) {
    if (v > 0) return false;
  }
  return true;
}

FaultPlan FaultPlan::Random(Rng* rng, std::uint32_t num_nodes,
                            SimTime horizon) {
  FaultPlan plan;
  double h = horizon.seconds();
  // Crash/restart pairs. Never crash node 0 (keeps a stable reference
  // replica and guarantees the system is never fully dead).
  std::uint64_t crashes = rng->UniformInt(3);  // 0, 1, or 2
  for (std::uint64_t i = 0; i < crashes && num_nodes > 1; ++i) {
    NodeId victim = static_cast<NodeId>(1 + rng->UniformInt(num_nodes - 1));
    double t1 = rng->UniformDouble() * h * 0.6;
    double t2 =
        t1 + 0.05 * h + rng->UniformDouble() * (h * 0.9 - t1 - 0.05 * h);
    plan.CrashAt(SimTime::Seconds(t1), victim)
        .RestartAt(SimTime::Seconds(t2), victim);
  }
  // Named partitions with heals.
  std::uint64_t partitions = rng->UniformInt(3);
  for (std::uint64_t i = 0; i < partitions && num_nodes > 2; ++i) {
    std::uint64_t group_size = 1 + rng->UniformInt(num_nodes / 2);
    std::vector<NodeId> group;
    for (std::uint64_t v :
         rng->SampleWithoutReplacement(num_nodes, group_size)) {
      group.push_back(static_cast<NodeId>(v));
    }
    std::sort(group.begin(), group.end());
    double t1 = rng->UniformDouble() * h * 0.6;
    double t2 =
        t1 + 0.05 * h + rng->UniformDouble() * (h * 0.9 - t1 - 0.05 * h);
    std::string name = StrPrintf("p%llu", (unsigned long long)i);
    plan.PartitionAt(SimTime::Seconds(t1), name, std::move(group))
        .HealPartitionAt(SimTime::Seconds(t2), name);
  }
  // Maybe a probabilistic chaos window.
  if (rng->Bernoulli(0.7)) {
    ChaosProfile chaos;
    chaos.drop_probability = rng->UniformDouble() * 0.02;
    chaos.duplicate_probability = rng->UniformDouble() * 0.02;
    chaos.delay_probability = rng->UniformDouble() * 0.05;
    chaos.max_extra_delay = SimTime::Millis(1 + rng->UniformInt(200));
    double t1 = rng->UniformDouble() * h * 0.4;
    double t2 = t1 + rng->UniformDouble() * (h * 0.9 - t1);
    plan.WithChaos(chaos)
        .ChaosOnAt(SimTime::Seconds(t1))
        .ChaosOffAt(SimTime::Seconds(t2));
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string s = StrPrintf("FaultPlan{%zu actions", actions_.size());
  if (!chaos_.empty()) {
    s += StrPrintf(", chaos drop=%.3f dup=%.3f delay=%.3f",
                   chaos_.drop_probability, chaos_.duplicate_probability,
                   chaos_.delay_probability);
  }
  s += "}";
  for (const FaultAction& a : actions_) {
    s += "\n  " + a.ToString();
  }
  return s;
}

}  // namespace tdr::fault
