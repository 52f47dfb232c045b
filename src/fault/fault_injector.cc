#include "fault/fault_injector.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace tdr::fault {

namespace {

std::pair<NodeId, NodeId> Ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

FaultInjector::FaultInjector(Cluster* cluster, FaultPlan plan, Rng rng)
    : cluster_(cluster), plan_(std::move(plan)), rng_(rng) {}

FaultInjector::~FaultInjector() { Disarm(); }

void FaultInjector::Arm() {
  if (armed_) return;
  armed_ = true;
  if (!plan_.chaos().empty()) {
    cluster_->net().set_interceptor(this);
    chaos_active_ = plan_.ChaosAlwaysOn();
  }
  for (const FaultAction& action : plan_.actions()) {
    scheduled_.push_back(cluster_->runtime().ScheduleAt(
        action.at, [this, &action]() { Apply(action); }));
  }
}

void FaultInjector::Disarm() {
  if (!armed_) return;
  armed_ = false;
  for (sim::EventId id : scheduled_) cluster_->runtime().Cancel(id);
  scheduled_.clear();
  chaos_active_ = false;
  if (cluster_->net().interceptor() == this) {
    cluster_->net().set_interceptor(nullptr);
  }
}

void FaultInjector::Apply(const FaultAction& action) {
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
      Crash(action.a);
      break;
    case FaultAction::Kind::kRestart:
      Restart(action.a);
      break;
    case FaultAction::Kind::kPartition:
      StartPartition(action.name, action.group);
      break;
    case FaultAction::Kind::kHealPartition:
      HealPartition(action.name);
      break;
    case FaultAction::Kind::kChaosOn:
      SetChaosActive(true);
      break;
    case FaultAction::Kind::kChaosOff:
      SetChaosActive(false);
      break;
  }
}

void FaultInjector::Separate(NodeId a, NodeId b, int delta) {
  auto key = Ordered(a, b);
  int& count = separation_[key];
  int before = count;
  count += delta;
  assert(count >= 0);
  if (before == 0 && count > 0) {
    cluster_->net().SetLinkUp(key.first, key.second, false);
  } else if (before > 0 && count == 0) {
    separation_.erase(key);
    cluster_->net().SetLinkUp(key.first, key.second, true);
  }
}

void FaultInjector::Crash(NodeId node) {
  if (cluster_->node(node)->crashed()) return;
  // Single seam: the RecoveryManager dispatches on the cluster's
  // durability mode (legacy pass-through under kOff, WAL crash model
  // otherwise), so fault plans run unchanged against any mode.
  cluster_->recovery().Crash(node);
  crashed_by_us_.push_back(node);
  Log(StrPrintf("crash node=%u", node));
  cluster_->metrics().Increment("fault.crashes");
}

void FaultInjector::Restart(NodeId node) {
  if (!cluster_->node(node)->crashed()) return;
  cluster_->recovery().Restart(node);
  crashed_by_us_.erase(
      std::remove(crashed_by_us_.begin(), crashed_by_us_.end(), node),
      crashed_by_us_.end());
  Log(StrPrintf("restart node=%u", node));
  cluster_->metrics().Increment("fault.restarts");
}

void FaultInjector::CutLink(NodeId a, NodeId b) {
  if (a == b) return;
  Separate(a, b, +1);
  Log(StrPrintf("cut-link (%u,%u)", a, b));
  cluster_->metrics().Increment("fault.link_cuts");
}

void FaultInjector::HealLink(NodeId a, NodeId b) {
  if (a == b) return;
  auto it = separation_.find(Ordered(a, b));
  if (it == separation_.end()) return;
  Separate(a, b, -1);
  Log(StrPrintf("heal-link (%u,%u)", a, b));
  cluster_->metrics().Increment("fault.link_heals");
}

void FaultInjector::StartPartition(const std::string& name,
                                   std::vector<NodeId> group) {
  if (active_partitions_.count(name) != 0) return;
  // Sever every link between the group and its complement.
  std::vector<bool> in_group(cluster_->size(), false);
  for (NodeId id : group) in_group[id] = true;
  for (NodeId a = 0; a < cluster_->size(); ++a) {
    if (!in_group[a]) continue;
    for (NodeId b = 0; b < cluster_->size(); ++b) {
      if (in_group[b]) continue;
      Separate(a, b, +1);
    }
  }
  Log(StrPrintf("partition \"%s\" (%zu nodes split off)", name.c_str(),
                group.size()));
  active_partitions_[name] = std::move(group);
  cluster_->metrics().Increment("fault.partitions");
}

void FaultInjector::HealPartition(const std::string& name) {
  auto it = active_partitions_.find(name);
  if (it == active_partitions_.end()) return;
  std::vector<bool> in_group(cluster_->size(), false);
  for (NodeId id : it->second) in_group[id] = true;
  for (NodeId a = 0; a < cluster_->size(); ++a) {
    if (!in_group[a]) continue;
    for (NodeId b = 0; b < cluster_->size(); ++b) {
      if (in_group[b]) continue;
      Separate(a, b, -1);
    }
  }
  // Log before erasing: `name` may alias the map key being erased
  // (HealAll passes `active_partitions_.begin()->first`).
  Log(StrPrintf("heal-partition \"%s\"", name.c_str()));
  active_partitions_.erase(it);
  cluster_->metrics().Increment("fault.partition_heals");
}

void FaultInjector::SetChaosActive(bool active) {
  if (chaos_active_ == active) return;
  chaos_active_ = active;
  Log(active ? "chaos-on" : "chaos-off");
}

void FaultInjector::HealAll() {
  SetChaosActive(false);
  // Heal named partitions first (deterministic map order), then any
  // leftover manual cuts.
  while (!active_partitions_.empty()) {
    HealPartition(active_partitions_.begin()->first);
  }
  while (!separation_.empty()) {
    auto key = separation_.begin()->first;
    separation_.begin()->second = 1;  // collapse nesting: one heal closes it
    Separate(key.first, key.second, -1);
  }
  // Restart crashed nodes in id order for determinism.
  std::vector<NodeId> crashed = crashed_by_us_;
  std::sort(crashed.begin(), crashed.end());
  for (NodeId node : crashed) Restart(node);
  Log("heal-all");
}

Network::InterceptVerdict FaultInjector::OnTransmit(NodeId /*from*/,
                                                    NodeId /*to*/) {
  Network::InterceptVerdict v;
  if (!chaos_active_) return v;
  const ChaosProfile& chaos = plan_.chaos();
  // Fixed draw order (drop, duplicate, delay) keeps the stream aligned
  // with the deterministic message order regardless of outcomes.
  bool drop = rng_.Bernoulli(chaos.drop_probability);
  bool dup = rng_.Bernoulli(chaos.duplicate_probability);
  bool delay = rng_.Bernoulli(chaos.delay_probability);
  if (drop) {
    cluster_->metrics().Increment("fault.injected_drops");
    v.drop = true;
    return v;
  }
  if (dup) {
    cluster_->metrics().Increment("fault.injected_duplicates");
    v.copies = 2;
  }
  if (delay && chaos.max_extra_delay > SimTime::Zero()) {
    cluster_->metrics().Increment("fault.injected_delays");
    v.extra_delay = SimTime::Micros(
        1 + rng_.UniformInt(
                static_cast<std::uint64_t>(chaos.max_extra_delay.micros())));
  }
  return v;
}

void FaultInjector::Log(std::string entry) {
  if (observer_) observer_(cluster_->runtime().Now(), entry);
  applied_log_.push_back(
      StrPrintf("[t=%.6fs] ", cluster_->runtime().Now().seconds()) +
      std::move(entry));
}

std::string FaultInjector::AppliedLogString() const {
  std::string s;
  for (const std::string& line : applied_log_) {
    if (!s.empty()) s += "\n";
    s += line;
  }
  return s;
}

}  // namespace tdr::fault
