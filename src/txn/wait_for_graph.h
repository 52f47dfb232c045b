#ifndef TDR_TXN_WAIT_FOR_GRAPH_H_
#define TDR_TXN_WAIT_FOR_GRAPH_H_

#include <cstdint>
#include <vector>

#include "storage/types.h"
#include "util/flat_map.h"

namespace tdr {

/// Cluster-global transaction wait-for graph.
///
/// "A deadlock consists of a cycle of transactions waiting for one
/// another" (§3). Every LockManager in a cluster registers its wait
/// edges here, so cycles that span nodes — the common case under eager
/// replication, where one transaction holds locks at N nodes — are
/// detected. The model assumes instantaneous perfect detection, which a
/// shared in-memory graph provides.
///
/// Adjacency lives in recycled flat nodes (sorted edge vectors indexed
/// by a FlatMap64), so the edge churn of every lock wait — AddEdge on
/// queue, ClearOutEdges on grant — allocates nothing in steady state.
/// Sorted vectors keep traversal in ascending-TxnId order, matching the
/// ordered-set iteration the deterministic sweeps were built on.
class WaitForGraph {
 public:
  WaitForGraph() = default;

  WaitForGraph(const WaitForGraph&) = delete;
  WaitForGraph& operator=(const WaitForGraph&) = delete;

  /// Adds a waiter -> holder edge. Parallel edges collapse (a waiter
  /// blocked behind the same transaction at two nodes needs one edge).
  void AddEdge(TxnId waiter, TxnId holder);

  void RemoveEdge(TxnId waiter, TxnId holder);

  /// Clears every out-edge of `waiter` (its wait ended or changed).
  void ClearOutEdges(TxnId waiter);

  /// True if `start` can reach itself — i.e. adding its current edges
  /// closed a cycle. Iterative DFS over member scratch; allocation-free
  /// once the scratch has grown to the working set.
  bool HasCycleFrom(TxnId start) const;

  /// The cycle through `start` if one exists (start, t1, ..., tk) with
  /// edges start->t1->...->tk->start; empty otherwise. Diagnostic path:
  /// allocates its result.
  std::vector<TxnId> FindCycleFrom(TxnId start) const;

  std::size_t EdgeCount() const { return edges_; }
  bool HasEdge(TxnId waiter, TxnId holder) const;

  /// Transactions `waiter` currently waits for (ascending).
  std::vector<TxnId> OutEdges(TxnId waiter) const;

 private:
  /// Per-transaction adjacency, recycled with capacity retained. A
  /// transaction occupies a node while it waits for anyone; a holder
  /// that waits for no one has none, and the cycle search skips it.
  struct NodeEntry {
    std::vector<TxnId> out;  // sorted ascending
  };

  std::uint32_t EnsureNode(TxnId txn);
  /// Frees `idx` back to the pool if its edge list emptied.
  void MaybeRecycle(TxnId txn, std::uint32_t idx);

  FlatMap64<std::uint32_t> index_;  // TxnId -> nodes_ slot
  std::vector<NodeEntry> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::size_t edges_ = 0;

  // HasCycleFrom scratch (capacity retained call to call).
  struct Frame {
    std::uint32_t node;  // nodes_ index
    std::uint32_t next;  // position in its out list
  };
  mutable std::vector<Frame> dfs_stack_;
  mutable FlatMap64<std::uint8_t> visited_;
};

}  // namespace tdr

#endif  // TDR_TXN_WAIT_FOR_GRAPH_H_
