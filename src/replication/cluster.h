#ifndef TDR_REPLICATION_CLUSTER_H_
#define TDR_REPLICATION_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "runtime/thread_runtime.h"
#include "sim/simulator.h"
#include "storage/shard_map.h"
#include "txn/executor.h"
#include "txn/node.h"
#include "txn/wait_for_graph.h"
#include "util/rng.h"
#include "util/stats.h"
#include "wal/recovery_manager.h"
#include "wal/wal_set.h"

namespace tdr {

/// Which execution backend a Cluster runs on. Both order events by the
/// same virtual (time, seq) key, so a seeded scenario is bit-identical
/// across backends; kThreads additionally runs each node's events on a
/// dedicated OS thread (see runtime/thread_runtime.h).
enum class RuntimeBackend {
  kSim,      // single-threaded deterministic simulator (default)
  kThreads,  // one worker thread + mailbox per node, sim as the clock
};

/// A fully-replicated cluster per the §2 model: `num_nodes` nodes, each
/// holding a replica of all `db_size` objects, wired by a simulated
/// Network, sharing one Simulator, one wait-for graph, one Executor and
/// one metrics registry. Replication schemes plug in on top.
class Cluster {
 public:
  struct Options {
    std::uint32_t num_nodes = 3;
    std::uint64_t db_size = 10000;
    /// Shards the key space is range-partitioned into (clamped to
    /// [1, db_size]). The replica appliers, the WAL and the shard
    /// digests key their state off the resulting ShardMap. One shard
    /// reproduces the unsharded data plane exactly.
    std::uint32_t num_shards = 1;
    SimTime action_time = SimTime::Millis(10);  // Table 2 Action_Time
    Network::Options net;
    std::uint64_t seed = 42;
    /// The model's assumption: instant perfect wait-for-graph deadlock
    /// detection. Turn off to rely on executor wait timeouts instead
    /// (production-style detection; see the A4 ablation).
    bool detect_deadlock_cycles = true;
    /// Execution backend; every component schedules through runtime().
    RuntimeBackend backend = RuntimeBackend::kSim;
    /// Per-node write-ahead logging (src/wal). kOff keeps the legacy
    /// crash model (durable stores, outbox-as-log); kCommit/kGroup add
    /// a WAL under the executor's commit path and route crash/restart
    /// through WAL recovery. `wal.mode` is the switch; the other fields
    /// tune flush latency, the group-commit window, and segmenting.
    wal::WalSet::Options wal;
  };

  explicit Cluster(Options options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The virtual clock / event core. With the kThreads backend, do not
  /// Run it directly — drive execution through runtime() so dispatch
  /// happens; reading Now()/executed_events() is always fine.
  sim::Simulator& sim() { return sim_; }
  /// The execution backend every component schedules against.
  runtime::Runtime& runtime() { return *rt_; }
  /// The thread backend, or null when backend == kSim.
  runtime::ThreadRuntime* thread_runtime() { return thread_rt_.get(); }
  Network& net() { return *net_; }
  Executor& executor() { return *exec_; }
  /// The write-ahead logs, or null when options().wal.mode == kOff.
  wal::WalSet* wals() { return wals_.get(); }
  /// The crash/restart seam (always present; pass-through when WAL is
  /// off). FaultInjector and tests route Crash/Restart through this.
  wal::RecoveryManager& recovery() { return *recovery_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  WaitForGraph& graph() { return graph_; }
  /// The cluster-wide range partition of the key space.
  const ShardMap& shards() const { return shards_; }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  Node* node(NodeId id) { return nodes_[id].get(); }
  const Node* node(NodeId id) const { return nodes_[id].get(); }
  std::vector<Node*> node_ptrs();

  const Options& options() const { return options_; }

  /// Independent RNG stream (deterministic given the cluster seed).
  Rng ForkRng() { return rng_.Fork(); }

  /// True if all nodes' stores hold identical values — the convergence
  /// property of §6 ("they will all converge to the same replicated
  /// state"). Timestamps are ignored; value equality is what matters.
  bool Converged() const;

  /// True if every node's store matches `reference` by value.
  bool ConvergedTo(const ObjectStore& reference) const;

  /// Number of (node, object) slots whose value differs from node 0 —
  /// a measure of replica divergence ("system delusion" when it cannot
  /// be repaired).
  std::uint64_t DivergentSlots() const;

  /// Order-sensitive digest of every node's store contents (values and
  /// timestamps) — two runs of the same seeded scenario are bit-identical
  /// iff their digests match. The replay-determinism fingerprint.
  std::uint64_t StateDigest() const;

  /// Shards of `shard` (one digest per node, node order) — the
  /// fine-grained twin of StateDigest for per-shard convergence checks.
  std::vector<std::uint64_t> ShardDigests(ShardId shard) const;

 private:
  // Every node's store, in node order.
  std::vector<const ObjectStore*> store_ptrs() const;

  Options options_;
  sim::Simulator sim_;
  WaitForGraph graph_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  ShardMap shards_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Declared before net_/exec_ (they take rt_), destroyed after them:
  // by then no dispatch is in flight, so joining idle workers is safe.
  std::unique_ptr<runtime::ThreadRuntime> thread_rt_;
  runtime::Runtime* rt_ = nullptr;  // &sim_, or thread_rt_.get()
  std::unique_ptr<Network> net_;
  std::unique_ptr<Executor> exec_;
  std::unique_ptr<wal::WalSet> wals_;  // null when wal.mode == kOff
  std::unique_ptr<wal::RecoveryManager> recovery_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_CLUSTER_H_
