#ifndef TDR_REPLICATION_SCHEME_FACTORY_H_
#define TDR_REPLICATION_SCHEME_FACTORY_H_

#include <memory>
#include <optional>
#include <string_view>

#include "replication/batch_shipper.h"
#include "replication/cluster.h"
#include "replication/ownership.h"
#include "replication/scheme.h"

namespace tdr {

class LazyGroupScheme;
class LazyMasterScheme;
class QuorumEagerScheme;

/// Every replication strategy a run can pick: Table 1's four cluster
/// rows with two eager-group ablations, quorum (§3), and Table 1's
/// two-tier row. Test parameters print the first six as raw bytes, so
/// their values stay fixed.
enum class SchemeKind {
  kEagerGroup,
  kEagerGroupParallel,   // footnote-2 ablation: parallel replica updates
  kEagerGroupReadLocks,  // "true serialization" ablation
  kEagerMaster,
  kLazyGroup,
  kLazyMaster,
  kQuorum,
  kTwoTier,  // a TwoTierSystem (core/two_tier.h), not a cluster scheme
};

std::string_view SchemeKindName(SchemeKind kind);

/// The kind whose SchemeKindName is `name`, if any.
std::optional<SchemeKind> SchemeKindFromName(std::string_view name);

/// A scheme built on a cluster, with the typed handles callers reach
/// past the ReplicationScheme interface for.
struct ClusterScheme {
  /// Round-robin master map; set for the master kinds only.
  std::unique_ptr<Ownership> ownership;
  std::unique_ptr<ReplicationScheme> scheme;
  LazyGroupScheme* lazy_group = nullptr;
  LazyMasterScheme* lazy_master = nullptr;
  QuorumEagerScheme* quorum = nullptr;
};

/// Builds `kind` on `cluster`; every kind but kTwoTier. `batch` is the
/// lazy kinds' shipping plane (the default ships per commit), and
/// `reconnect_catch_up` lazy master's anti-entropy on reconnect and
/// heal (LazyMasterScheme::Options).
ClusterScheme MakeScheme(Cluster* cluster, SchemeKind kind,
                         const BatchShipper::Options& batch = {SimTime::Zero(),
                                                               0, true},
                         bool reconnect_catch_up = false);

}  // namespace tdr

#endif  // TDR_REPLICATION_SCHEME_FACTORY_H_
