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
/// Representation: a hashed lock table that holds an entry only for an
/// object that has a holder, the way classic lock managers hash lock
/// names. By the paper's Eq. (1) a node runs only TPS x Actions x
/// Action_Time transactions at once, each holding at most Actions
/// locks, so the table stays a few hundred entries however large
/// DB_Size grows. An entry is a holder plus an intrusive FIFO of pooled
/// waiters (SBO grant callbacks, sim/callback.h). Acquire and Release
/// each probe the table once. The manager keeps nothing per
/// transaction: each holder (the executor's transaction, the replica
/// applier's job) records the locks it is granted, on kGranted and in
/// its grant callback, and releases them itself, in grant order. Grant
/// order is the queue's FIFO order and wait-for edges are installed and
/// removed at fixed points; replay digests depend on those and on the
/// holders' release order, not on where an entry sits in the table.
/// Steady state allocates nothing: waiter slots recycle through a free
/// list, and the table is a backward-shift-deleting flat map that
/// never rehashes once the workload's concurrency high-water is
/// reached.
class LockManager {
 public:
  enum class AcquireOutcome {
    kGranted,   // lock acquired now; the caller must release it
    kHeld,      // the caller already holds it; nothing new to release
    kQueued,    // on_grant will fire when the lock is granted
    kDeadlock,  // queuing would close a wait-for cycle; request dropped
  };

  using GrantCallback = sim::Callback;

  /// `db_size` bounds the object ids this manager may see; nothing is
  /// sized by it. `graph` is shared across all lock managers of a
  /// cluster and must outlive them. With `detect_cycles` false the
  /// wait-for graph is still maintained (for diagnostics) but
  /// requests that close a cycle simply QUEUE — deadlock resolution is
  /// then someone else's job (e.g. the executor's wait timeouts). That
  /// is the production timeout-based alternative the ablation bench
  /// compares against.
  LockManager(NodeId node, std::uint64_t db_size, WaitForGraph* graph,
              bool detect_cycles = true)
      : node_(node),
        db_size_(db_size),
        graph_(graph),
        detect_cycles_(detect_cycles) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests the exclusive lock on `oid` for `txn`. Re-acquiring a held
  /// lock returns kHeld. On kQueued, `on_grant` fires exactly once
  /// when the transaction reaches the front; on kDeadlock the request
  /// has been dropped (the requester is the victim — the paper's
  /// per-transaction deadlock hazard, Eq. 3) and `on_grant` never fires.
  AcquireOutcome Acquire(TxnId txn, ObjectId oid, GrantCallback on_grant);

  /// Releases a held lock; grants to the next queued waiter, if any.
  /// Releasing a lock that is not held by `txn` is an internal error and
  /// is ignored (counted in `bad_releases()` for tests to assert on).
  void Release(TxnId txn, ObjectId oid);

  /// Withdraws a queued request (the waiter aborted for another reason).
  /// Returns true if a request was withdrawn.
  bool CancelRequest(TxnId txn, ObjectId oid);

  bool Holds(TxnId txn, ObjectId oid) const;

  /// Number of objects currently locked at this node.
  std::size_t LockedObjectCount() const { return slots_.size(); }

  /// Number of transactions queued (waiting) at this node.
  std::size_t WaiterCount() const { return waiter_count_; }

  std::uint64_t total_waits() const { return total_waits_; }
  std::uint64_t total_deadlocks() const { return total_deadlocks_; }
  std::uint64_t bad_releases() const { return bad_releases_; }

  NodeId node() const { return node_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A locked object's entry; q_head/q_tail index the waiter pool.
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
  /// The lock table's key for `oid` (FlatMap64 reserves key 0).
  static std::uint64_t Key(ObjectId oid) { return oid + 1; }

  NodeId node_;
  std::uint64_t db_size_;  // bounds the ids; asserted only
  WaitForGraph* graph_;
  bool detect_cycles_;
  // Lock table: Key(oid) -> entry, present exactly while `oid` has a
  // holder. An insert may rehash and an erase shifts entries back, so
  // no Slot pointer is held across either, nor across a grant callback
  // (which may acquire or release).
  FlatMap64<Slot> slots_;
  // Waiter pool, free-listed through Waiter::next.
  std::vector<Waiter> waiters_;
  std::uint32_t free_waiter_ = kNil;
  std::size_t waiter_count_ = 0;
  std::uint64_t total_waits_ = 0;
  std::uint64_t total_deadlocks_ = 0;
  std::uint64_t bad_releases_ = 0;
};

}  // namespace tdr

#endif  // TDR_TXN_LOCK_MANAGER_H_
