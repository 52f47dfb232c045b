#ifndef TDR_TXN_LOCK_MANAGER_H_
#define TDR_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "storage/types.h"
#include "txn/wait_for_graph.h"
#include "util/flat_map.h"

namespace tdr {

/// Per-node exclusive lock manager with FIFO wait queues and immediate
/// deadlock detection against a cluster-global WaitForGraph.
///
/// The paper's model uses pure write locking: "it ignores true
/// serialization, and assumes a weak multi-version form of
/// committed-read serialization (no read locks)". Reads never come here;
/// writes take exclusive object locks held to commit/abort (strict 2PL
/// on writes).
///
/// IMPORTANT CONTRACT: a transaction may have at most one outstanding
/// (queued) lock request across the whole cluster at a time — our
/// transactions execute actions sequentially, which guarantees this.
/// The wait-for bookkeeping relies on it.
///
/// Representation: object ids are dense by construction (ObjectStore
/// is 0..db_size), so the lock table is one flat slot per object —
/// holder plus an intrusive FIFO of pooled waiters (SBO grant
/// callbacks, sim/callback.h) — instead of the ordered maps it
/// replaced. Semantics are bit-for-bit identical: grant order is the
/// queue's FIFO order, wait-for edges are installed/removed at exactly
/// the same points, and the reverse (txn -> held objects) index keeps
/// insertion order so ReleaseAll releases in acquisition order.
/// Steady state allocates nothing: waiter slots and held-entry vectors
/// recycle through free lists, and the reverse index is a
/// backward-shift-deleting flat map that never rehashes once the
/// workload's concurrency high-water is reached.
class LockManager {
 public:
  enum class AcquireOutcome {
    kGranted,   // lock acquired immediately (or already held)
    kQueued,    // on_grant will fire when the lock is granted
    kDeadlock,  // queuing would close a wait-for cycle; request dropped
  };

  using GrantCallback = sim::Callback;

  /// `db_size` bounds the object ids this manager may see (the flat
  /// table has one slot per object). `graph` is shared across all lock
  /// managers of a cluster and must outlive them. With `detect_cycles`
  /// false the wait-for graph is still maintained (for diagnostics) but
  /// requests that close a cycle simply QUEUE — deadlock resolution is
  /// then someone else's job (e.g. the executor's wait timeouts). That
  /// is the production timeout-based alternative the ablation bench
  /// compares against.
  LockManager(NodeId node, std::uint64_t db_size, WaitForGraph* graph,
              bool detect_cycles = true)
      : node_(node),
        graph_(graph),
        detect_cycles_(detect_cycles),
        slots_(db_size) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests the exclusive lock on `oid` for `txn`. Re-acquiring a held
  /// lock returns kGranted. On kQueued, `on_grant` fires exactly once
  /// when the transaction reaches the front; on kDeadlock the request
  /// has been dropped (the requester is the victim — the paper's
  /// per-transaction deadlock hazard, Eq. 3) and `on_grant` never fires.
  AcquireOutcome Acquire(TxnId txn, ObjectId oid, GrantCallback on_grant);

  /// Releases a held lock; grants to the next queued waiter, if any.
  /// Releasing a lock that is not held by `txn` is an internal error and
  /// is ignored (counted in `bad_releases()` for tests to assert on).
  void Release(TxnId txn, ObjectId oid);

  /// Releases every lock `txn` holds at this node (commit/abort path),
  /// in acquisition order.
  void ReleaseAll(TxnId txn);

  /// Withdraws a queued request (the waiter aborted for another reason).
  /// Returns true if a request was withdrawn.
  bool CancelRequest(TxnId txn, ObjectId oid);

  bool Holds(TxnId txn, ObjectId oid) const;

  /// Hints the CPU to start loading `oid`'s lock slot into cache, for a
  /// caller that will acquire it a while later. Changes no state; an
  /// out-of-range id is ignored.
  void Prefetch(ObjectId oid) const {
    if (oid < slots_.size()) __builtin_prefetch(&slots_[oid]);
  }

  /// Number of locks `txn` currently holds at this node.
  std::size_t HeldCount(TxnId txn) const;

  /// Number of objects currently locked at this node.
  std::size_t LockedObjectCount() const { return locked_objects_; }

  /// Number of transactions queued (waiting) at this node.
  std::size_t WaiterCount() const { return waiter_count_; }

  std::uint64_t total_waits() const { return total_waits_; }
  std::uint64_t total_deadlocks() const { return total_deadlocks_; }
  std::uint64_t bad_releases() const { return bad_releases_; }

  NodeId node() const { return node_; }
  std::uint64_t db_size() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Flat per-object lock slot; q_head/q_tail index the waiter pool.
  struct Slot {
    TxnId holder = kInvalidTxnId;
    std::uint32_t q_head = kNil;
    std::uint32_t q_tail = kNil;
  };

  /// Pooled wait-queue node (free-listed through `next`).
  struct Waiter {
    TxnId txn = kInvalidTxnId;
    sim::Callback on_grant;
    std::uint32_t next = kNil;
  };

  std::uint32_t AcquireWaiter(TxnId txn, sim::Callback on_grant);
  void RecycleWaiter(std::uint32_t idx);
  std::uint32_t AcquireHeldEntry();
  void RecycleHeldEntry(std::uint32_t idx);
  void HeldPush(TxnId txn, ObjectId oid);
  void HeldErase(TxnId txn, ObjectId oid);
  /// Release with optional reverse-index maintenance (ReleaseAll
  /// detaches the whole entry up front and skips per-oid erases).
  void ReleaseLocked(TxnId txn, ObjectId oid, bool update_held);

  NodeId node_;
  WaitForGraph* graph_;
  bool detect_cycles_;
  std::vector<Slot> slots_;  // one per object id
  // Waiter pool, free-listed through Waiter::next.
  std::vector<Waiter> waiters_;
  std::uint32_t free_waiter_ = kNil;
  // Reverse index: txn -> pooled vector of held object ids (insertion
  // = acquisition order, preserved by HeldErase).
  FlatMap64<std::uint32_t> held_index_;
  std::vector<std::vector<ObjectId>> held_entries_;
  std::vector<std::uint32_t> held_free_;
  std::size_t locked_objects_ = 0;
  std::size_t waiter_count_ = 0;
  std::uint64_t total_waits_ = 0;
  std::uint64_t total_deadlocks_ = 0;
  std::uint64_t bad_releases_ = 0;
};

}  // namespace tdr

#endif  // TDR_TXN_LOCK_MANAGER_H_
