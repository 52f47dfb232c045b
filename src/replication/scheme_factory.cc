#include "replication/scheme_factory.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/quorum.h"

namespace tdr {

namespace {

std::unique_ptr<Ownership> RoundRobinOwnership(const Cluster& cluster) {
  std::vector<NodeId> owners(cluster.size());
  for (NodeId id = 0; id < cluster.size(); ++id) owners[id] = id;
  return std::make_unique<Ownership>(
      Ownership::RoundRobin(cluster.options().db_size, owners));
}

}  // namespace

std::string_view SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kEagerGroup: return "eager-group";
    case SchemeKind::kEagerGroupParallel: return "eager-group-parallel";
    case SchemeKind::kEagerGroupReadLocks: return "eager-group-readlocks";
    case SchemeKind::kEagerMaster: return "eager-master";
    case SchemeKind::kLazyGroup: return "lazy-group";
    case SchemeKind::kLazyMaster: return "lazy-master";
    case SchemeKind::kQuorum: return "quorum-eager";
    case SchemeKind::kTwoTier: return "two-tier";
  }
  return "?";
}

std::optional<SchemeKind> SchemeKindFromName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(SchemeKind::kTwoTier); ++i) {
    const auto kind = static_cast<SchemeKind>(i);
    if (SchemeKindName(kind) == name) return kind;
  }
  return std::nullopt;
}

ClusterScheme MakeScheme(Cluster* cluster, SchemeKind kind,
                         const BatchShipper::Options& batch,
                         bool reconnect_catch_up) {
  ClusterScheme s;
  switch (kind) {
    case SchemeKind::kEagerGroup:
    case SchemeKind::kEagerGroupParallel:
    case SchemeKind::kEagerGroupReadLocks: {
      EagerGroupScheme::Options o;
      o.parallel_replica_updates = kind == SchemeKind::kEagerGroupParallel;
      o.lock_reads = kind == SchemeKind::kEagerGroupReadLocks;
      s.scheme = std::make_unique<EagerGroupScheme>(cluster, o);
      break;
    }
    case SchemeKind::kEagerMaster:
      s.ownership = RoundRobinOwnership(*cluster);
      s.scheme =
          std::make_unique<EagerMasterScheme>(cluster, s.ownership.get());
      break;
    case SchemeKind::kLazyGroup: {
      LazyGroupScheme::Options o;
      o.batch = batch;
      auto lg = std::make_unique<LazyGroupScheme>(cluster, o);
      s.lazy_group = lg.get();
      s.scheme = std::move(lg);
      break;
    }
    case SchemeKind::kLazyMaster: {
      s.ownership = RoundRobinOwnership(*cluster);
      LazyMasterScheme::Options o;
      o.reconnect_catch_up = reconnect_catch_up;
      o.batch = batch;
      auto lm = std::make_unique<LazyMasterScheme>(cluster, s.ownership.get(),
                                                   o);
      s.lazy_master = lm.get();
      s.scheme = std::move(lm);
      break;
    }
    case SchemeKind::kQuorum: {
      auto q = std::make_unique<QuorumEagerScheme>(cluster);
      s.quorum = q.get();
      s.scheme = std::move(q);
      break;
    }
    case SchemeKind::kTwoTier:
      std::abort();  // TwoTierSystem owns its cluster and schemes
  }
  return s;
}

}  // namespace tdr
