#include "replication/cluster.h"

#include "util/fnv.h"

namespace tdr {

Cluster::Cluster(Options options)
    : options_(options),
      rng_(options.seed, /*stream=*/1),
      shards_(options.db_size, options.num_shards) {
  nodes_.reserve(options_.num_nodes);
  for (NodeId id = 0; id < options_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<Node>(
        id, options_.db_size, &graph_, options_.detect_deadlock_cycles));
  }
  if (options_.backend == RuntimeBackend::kThreads) {
    thread_rt_ = std::make_unique<runtime::ThreadRuntime>(
        &sim_, options_.num_nodes, &metrics_);
  }
  net_ = std::make_unique<Network>(&sim_, node_ptrs(), options_.net,
                                   &metrics_);
  exec_ = std::make_unique<Executor>(&sim_, node_ptrs(), &metrics_);
  if (options_.wal.mode != DurabilityMode::kOff) {
    // The torn-tail RNG stream is consumed only at crash events, so
    // clean runs are unaffected by its existence.
    wals_ = std::make_unique<wal::WalSet>(&sim_, options_.num_nodes, &shards_,
                                          options_.wal,
                                          Rng(options_.seed, /*stream=*/911),
                                          &metrics_);
    exec_->set_durability(wals_.get());
  }
  recovery_ = std::make_unique<wal::RecoveryManager>(node_ptrs(), net_.get(),
                                                     wals_.get());
}

std::vector<Node*> Cluster::node_ptrs() {
  std::vector<Node*> ptrs;
  ptrs.reserve(nodes_.size());
  for (auto& n : nodes_) ptrs.push_back(n.get());
  return ptrs;
}

bool Cluster::Converged() const {
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (!nodes_[0]->store().SameValuesAs(nodes_[i]->store())) return false;
  }
  return true;
}

bool Cluster::ConvergedTo(const ObjectStore& reference) const {
  for (const auto& n : nodes_) {
    if (!n->store().SameValuesAs(reference)) return false;
  }
  return true;
}

std::uint64_t Cluster::DivergentSlots() const {
  std::uint64_t divergent = 0;
  if (nodes_.empty()) return divergent;
  const ObjectStore& reference = nodes_[0]->store();
  for (ObjectId oid = 0; oid < reference.size(); ++oid) {
    const StoredObject& slot = reference.GetUnchecked(oid);
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (!nodes_[i]->store().GetUnchecked(oid).SameValueAs(slot)) {
        ++divergent;
      }
    }
  }
  return divergent;
}

std::vector<const ObjectStore*> Cluster::store_ptrs() const {
  std::vector<const ObjectStore*> stores;
  stores.reserve(nodes_.size());
  for (const auto& n : nodes_) stores.push_back(&n->store());
  return stores;
}

std::uint64_t Cluster::StateDigest() const {
  // FNV-1a over the per-store digests, in node order: sensitive to every
  // value and timestamp on every replica.
  std::vector<std::uint64_t> digests(nodes_.size());
  ObjectStore::DigestRanges(store_ptrs(), 0, options_.db_size, digests);
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint64_t d : digests) h = FnvMix(h, d);
  return h;
}

std::vector<std::uint64_t> Cluster::ShardDigests(ShardId shard) const {
  std::vector<std::uint64_t> digests(nodes_.size());
  ObjectStore::DigestRanges(store_ptrs(), shards_.ShardBegin(shard),
                            shards_.ShardEnd(shard), digests);
  return digests;
}

}  // namespace tdr
