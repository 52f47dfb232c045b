#ifndef TDR_REPLICATION_QUORUM_H_
#define TDR_REPLICATION_QUORUM_H_

#include <cstdint>
#include <vector>

#include "replication/cluster.h"
#include "replication/scheme.h"
#include "util/result.h"

namespace tdr {

/// Weighted-voting eager replication (Gifford, SOSP'79; Garcia-Molina &
/// Barbara, JACM'85 — both cited in §3): "For high availability, eager
/// replication systems allow updates among members of the quorum or
/// cluster. When a node joins the quorum, the quorum sends the new node
/// all replica updates since the node was disconnected."
///
/// Every replica holds a vote weight. A write commits eagerly at any set
/// of connected replicas holding at least `write_quorum` votes; a read
/// consults replicas holding at least `read_quorum` votes and takes the
/// newest version. With read_quorum + write_quorum > total votes, any
/// read quorum intersects any write quorum, so reads always see the
/// latest committed write even though some replicas are stale.
///
/// Rejoining nodes catch up automatically: the scheme hooks the
/// network's reconnect notification and refreshes every object the node
/// missed from the surviving quorum (newest-version copy).
class QuorumEagerScheme : public ReplicationScheme {
 public:
  struct Options {
    /// Vote weight per node; empty = one vote each.
    std::vector<std::uint32_t> votes;
    /// Votes a write set must muster; 0 = strict majority of all votes.
    std::uint32_t write_quorum = 0;
    /// Votes a read set must muster; 0 = total - write_quorum + 1 (the
    /// minimum that still guarantees intersection).
    std::uint32_t read_quorum = 0;
  };

  explicit QuorumEagerScheme(Cluster* cluster)
      : QuorumEagerScheme(cluster, Options()) {}
  QuorumEagerScheme(Cluster* cluster, Options options);

  std::string_view name() const override { return "quorum-eager"; }
  bool eager() const override { return true; }
  bool group_ownership() const override { return true; }
  std::uint64_t TransactionsPerUserUpdate(std::uint32_t) const override {
    return 1;
  }

  /// Runs the transaction eagerly across the current write quorum.
  /// kUnavailable if the connected replicas (including the origin) hold
  /// fewer than write_quorum votes.
  void Submit(NodeId origin, const Program& program,
              DoneCallback done) override;

  /// Quorum read: consults connected replicas holding >= read_quorum
  /// votes and returns the newest version of `oid`. kUnavailable if the
  /// read quorum cannot be formed. (Omniscient view — ignores link
  /// partitions.)
  Result<StoredObject> ReadLatest(ObjectId oid) const;

  std::uint32_t total_votes() const { return total_votes_; }
  std::uint32_t write_quorum() const { return write_quorum_; }
  std::uint32_t read_quorum() const { return read_quorum_; }
  std::uint32_t VoteOf(NodeId id) const { return votes_[id]; }

  /// Votes currently held by connected replicas (ignores partitions).
  std::uint32_t ConnectedVotes() const;

  /// Votes held by replicas reachable from `origin` (including the
  /// origin itself when connected). Under a link partition this is the
  /// origin's side of the split, which is what quorum formation must
  /// use — a node cannot enlist replicas it cannot talk to.
  std::uint32_t ReachableVotes(NodeId origin) const;

  /// True if a write can currently commit somewhere (ignores partitions).
  bool WriteQuorumAvailable() const {
    return ConnectedVotes() >= write_quorum_;
  }

  /// True if a write submitted at `origin` can currently commit.
  bool WriteQuorumAvailableAt(NodeId origin) const {
    return ReachableVotes(origin) >= write_quorum_;
  }

  std::uint64_t catch_up_objects() const {
    return cluster_->metrics().Get("quorum.catch_up_objects");
  }

  /// Anti-entropy sweep: every connected node refreshes from the newest
  /// reachable version of each object. With all links healed this fully
  /// converges the cluster (quorum writes only touch quorum members, so
  /// replicas outside recent write sets are legitimately stale until
  /// they catch up).
  void CatchUpAll();

 private:
  /// Refreshes every stale object of a rejoining node from the newest
  /// reachable replica.
  void CatchUp(NodeId rejoined);

  Cluster* cluster_;
  Options options_;
  std::vector<std::uint32_t> votes_;
  std::uint32_t total_votes_ = 0;
  std::uint32_t write_quorum_ = 0;
  std::uint32_t read_quorum_ = 0;
  /// Submit's write-set scratch (reused per call, never live across
  /// reentry — Submit does not call itself).
  std::vector<NodeId> members_scratch_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_QUORUM_H_
