#include "replication/quorum.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "util/logging.h"

namespace tdr {

QuorumEagerScheme::QuorumEagerScheme(Cluster* cluster, Options options)
    : cluster_(cluster), options_(std::move(options)) {
  votes_ = options_.votes;
  if (votes_.empty()) {
    votes_.assign(cluster_->size(), 1);
  }
  assert(votes_.size() == cluster_->size());
  for (std::uint32_t v : votes_) total_votes_ += v;
  write_quorum_ = options_.write_quorum != 0 ? options_.write_quorum
                                             : total_votes_ / 2 + 1;
  read_quorum_ = options_.read_quorum != 0
                     ? options_.read_quorum
                     : total_votes_ - write_quorum_ + 1;
  // Soundness: any read quorum must intersect any write quorum, and two
  // write quorums must intersect (serializing writers of an object).
  assert(read_quorum_ + write_quorum_ > total_votes_);
  assert(2 * write_quorum_ > total_votes_);
  // Catch-up wiring: a rejoining replica refreshes from the quorum, and
  // a healing link lets both endpoints refresh from the side they could
  // not see during the partition.
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    cluster_->net().OnReconnect(id, [this, id]() { CatchUp(id); });
  }
  cluster_->net().OnLinkRestored([this](NodeId a, NodeId b) {
    if (cluster_->node(a)->connected()) CatchUp(a);
    if (cluster_->node(b)->connected()) CatchUp(b);
  });
}

std::uint32_t QuorumEagerScheme::ConnectedVotes() const {
  std::uint32_t votes = 0;
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (cluster_->node(id)->connected()) votes += votes_[id];
  }
  return votes;
}

std::uint32_t QuorumEagerScheme::ReachableVotes(NodeId origin) const {
  if (!cluster_->node(origin)->connected()) return 0;
  std::uint32_t votes = 0;
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (cluster_->net().Reachable(origin, id)) votes += votes_[id];
  }
  return votes;
}

void QuorumEagerScheme::Submit(NodeId origin, const Program& program,
                               DoneCallback done) {
  if (!cluster_->node(origin)->connected() ||
      !WriteQuorumAvailableAt(origin)) {
    cluster_->metrics().Increment("scheme.unavailable");
    TxnResult r;
    r.origin = origin;
    r.outcome = TxnOutcome::kUnavailable;
    r.start_time = cluster_->sim().Now();
    r.end_time = r.start_time;
    if (done) done(r);
    return;
  }
  // Write set: the origin plus replicas it can reach until the quorum
  // is met, kept in ascending id order. The global order serializes all
  // quorum writers of an object through the same first member, so
  // same-object quorum writes cannot deadlock with each other. The
  // member list is per-scheme scratch: Submit never reenters itself
  // while it is live.
  std::vector<NodeId>& members = members_scratch_;
  members.clear();
  std::uint32_t votes = votes_[origin];
  members.push_back(origin);
  for (NodeId id = 0; id < cluster_->size() && votes < write_quorum_;
       ++id) {
    if (id == origin || !cluster_->net().Reachable(origin, id)) continue;
    members.push_back(id);
    votes += votes_[id];
  }
  assert(votes >= write_quorum_);
  std::sort(members.begin(), members.end());
  // Version-correct quorum writing (Gifford): lock the whole write set
  // (kLockOnly steps), then a kQuorumApply step reads the newest locked
  // version, applies the op once, and installs the same value at every
  // member.
  std::vector<ExecStep>& steps = cluster_->executor().NewPlan();
  int op_index = 0;
  for (const Op& op : program.ops()) {
    if (!op.IsWrite()) {
      steps.push_back(ExecStep{origin, op});
      continue;
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      ExecStep step;
      step.node = members[i];
      step.op = op;
      step.op_index = op_index;
      step.kind = i + 1 < members.size() ? StepKind::kLockOnly
                                         : StepKind::kQuorumApply;
      steps.push_back(step);
    }
    ++op_index;
  }
  Executor::RunOptions opts;
  opts.action_time = cluster_->options().action_time;
  opts.record_updates = false;
  cluster_->executor().RunPlan(origin, std::move(opts), std::move(done));
}

Result<StoredObject> QuorumEagerScheme::ReadLatest(ObjectId oid) const {
  std::uint32_t votes = 0;
  const StoredObject* newest = nullptr;
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (!cluster_->node(id)->connected()) continue;
    const ObjectStore& store = cluster_->node(id)->store();
    if (!store.Contains(oid)) {
      return Status::NotFound("ReadLatest: object out of range");
    }
    const StoredObject& obj = store.GetUnchecked(oid);
    if (newest == nullptr || obj.ts() > newest->ts()) newest = &obj;
    votes += votes_[id];
    if (votes >= read_quorum_) break;
  }
  if (votes < read_quorum_ || newest == nullptr) {
    return Status::Unavailable(
        StrPrintf("read quorum unavailable: %u of %u votes", votes,
                  read_quorum_));
  }
  return *newest;
}

Result<StoredObject> QuorumEagerScheme::ReadLatestAt(NodeId reader,
                                                     ObjectId oid) const {
  std::uint32_t votes = 0;
  const StoredObject* newest = nullptr;
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (!cluster_->net().Reachable(reader, id)) continue;
    const ObjectStore& store = cluster_->node(id)->store();
    if (!store.Contains(oid)) {
      return Status::NotFound("ReadLatestAt: object out of range");
    }
    const StoredObject& obj = store.GetUnchecked(oid);
    if (newest == nullptr || obj.ts() > newest->ts()) newest = &obj;
    votes += votes_[id];
    if (votes >= read_quorum_) break;
  }
  if (votes < read_quorum_ || newest == nullptr) {
    return Status::Unavailable(
        StrPrintf("read quorum unavailable at node %u: %u of %u votes",
                  reader, votes, read_quorum_));
  }
  return *newest;
}

void QuorumEagerScheme::CatchUpAll() {
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (cluster_->node(id)->connected()) CatchUp(id);
  }
}

void QuorumEagerScheme::CatchUp(NodeId rejoined) {
  // "The quorum sends the new node all replica updates since the node
  // was disconnected": refresh every object whose newest reachable
  // version is later than the rejoined node's copy. Shards are
  // contiguous id ranges, so walking them in order preserves the
  // ascending-oid refresh order while making per-shard repair volume
  // visible in quorum.shard_catch_up{shard=K}.
  Node* node = cluster_->node(rejoined);
  const ShardMap& shards = cluster_->shards();
  for (ShardId shard = 0; shard < shards.num_shards(); ++shard) {
    std::uint64_t refreshed = 0;
    for (ObjectId oid = shards.ShardBegin(shard);
         oid < shards.ShardEnd(shard); ++oid) {
      const StoredObject* newest = nullptr;
      for (NodeId id = 0; id < cluster_->size(); ++id) {
        if (id == rejoined || !cluster_->net().Reachable(rejoined, id)) {
          continue;
        }
        const StoredObject& obj =
            cluster_->node(id)->store().GetUnchecked(oid);
        if (newest == nullptr || obj.ts() > newest->ts()) newest = &obj;
      }
      if (newest == nullptr) continue;  // nobody else is up
      bool applied = false;
      Status s = node->store().ApplyIfNewer(oid, newest->value(),
                                            newest->ts(), &applied);
      assert(s.ok());
      (void)s;
      if (applied) {
        ++refreshed;
        cluster_->metrics().Increment("quorum.catch_up_objects");
      }
    }
    if (refreshed > 0 && shards.num_shards() > 1) {
      cluster_->metrics()
          .GetCounter("quorum.shard_catch_up",
                      {{"shard", std::to_string(shard)}})
          .Increment(refreshed);
    }
  }
}

}  // namespace tdr
