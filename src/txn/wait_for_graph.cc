#include "txn/wait_for_graph.h"

#include <algorithm>

namespace tdr {
namespace {

/// Inserts `x` into sorted `v` if absent; true if inserted.
bool SortedInsert(std::vector<TxnId>& v, TxnId x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

/// Erases `x` from sorted `v`; true if it was present.
bool SortedErase(std::vector<TxnId>& v, TxnId x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

bool SortedContains(const std::vector<TxnId>& v, TxnId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

std::uint32_t WaitForGraph::EnsureNode(TxnId txn) {
  auto [slot, inserted] = index_.FindOrInsert(txn, 0);
  if (!inserted) return *slot;
  std::uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    // Uniform birth capacity: recycled entries come off the free list in
    // arbitrary order, so a shared floor keeps a deep wait queue from
    // re-growing whichever entry it happens to draw. 32 covers the FIFO
    // fan-out (edge to the holder plus every earlier waiter).
    nodes_.back().out.reserve(32);
  }
  *slot = idx;
  return idx;
}

void WaitForGraph::MaybeRecycle(TxnId txn, std::uint32_t idx) {
  if (!nodes_[idx].out.empty()) return;
  index_.Erase(txn);
  free_nodes_.push_back(idx);
}

void WaitForGraph::AddEdge(TxnId waiter, TxnId holder) {
  if (waiter == holder) return;  // self-waits are meaningless here
  if (SortedInsert(nodes_[EnsureNode(waiter)].out, holder)) ++edges_;
}

void WaitForGraph::RemoveEdge(TxnId waiter, TxnId holder) {
  const std::uint32_t* pidx = index_.Find(waiter);
  if (pidx == nullptr) return;
  std::uint32_t idx = *pidx;
  if (SortedErase(nodes_[idx].out, holder)) --edges_;
  MaybeRecycle(waiter, idx);
}

void WaitForGraph::ClearOutEdges(TxnId waiter) {
  const std::uint32_t* pidx = index_.Find(waiter);
  if (pidx == nullptr) return;
  std::uint32_t idx = *pidx;
  edges_ -= nodes_[idx].out.size();
  nodes_[idx].out.clear();
  MaybeRecycle(waiter, idx);
}

bool WaitForGraph::HasCycleFrom(TxnId start) const {
  const std::uint32_t* si = index_.Find(start);
  if (si == nullptr) return false;
  visited_.Clear();
  dfs_stack_.clear();
  visited_.FindOrInsert(start, 1);
  dfs_stack_.push_back(Frame{*si, 0});
  while (!dfs_stack_.empty()) {
    Frame& top = dfs_stack_.back();
    const std::vector<TxnId>& out = nodes_[top.node].out;
    if (top.next < out.size()) {
      TxnId next = out[top.next++];
      if (next == start) return true;
      if (visited_.FindOrInsert(next, 1).second) {
        if (const std::uint32_t* ni = index_.Find(next)) {
          dfs_stack_.push_back(Frame{*ni, 0});
        }
      }
    } else {
      dfs_stack_.pop_back();
    }
  }
  return false;
}

std::vector<TxnId> WaitForGraph::FindCycleFrom(TxnId start) const {
  // Iterative DFS recording the path; a return to `start` is a cycle.
  // Same ascending successor order as HasCycleFrom, so the reported
  // cycle is the one whose existence that check proved.
  std::vector<TxnId> path;
  const std::uint32_t* si = index_.Find(start);
  if (si == nullptr) return path;
  visited_.Clear();
  dfs_stack_.clear();
  visited_.FindOrInsert(start, 1);
  dfs_stack_.push_back(Frame{*si, 0});
  path.push_back(start);
  while (!dfs_stack_.empty()) {
    Frame& top = dfs_stack_.back();
    const std::vector<TxnId>& out = nodes_[top.node].out;
    if (top.next < out.size()) {
      TxnId next = out[top.next++];
      if (next == start) return path;  // cycle closed
      if (visited_.FindOrInsert(next, 1).second) {
        if (const std::uint32_t* ni = index_.Find(next)) {
          dfs_stack_.push_back(Frame{*ni, 0});
          path.push_back(next);
        }
      }
    } else {
      dfs_stack_.pop_back();
      path.pop_back();
    }
  }
  return {};
}

bool WaitForGraph::HasEdge(TxnId waiter, TxnId holder) const {
  const std::uint32_t* wi = index_.Find(waiter);
  return wi != nullptr && SortedContains(nodes_[*wi].out, holder);
}

std::vector<TxnId> WaitForGraph::OutEdges(TxnId waiter) const {
  const std::uint32_t* wi = index_.Find(waiter);
  if (wi == nullptr) return {};
  return nodes_[*wi].out;
}

}  // namespace tdr
