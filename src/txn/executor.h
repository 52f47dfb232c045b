#ifndef TDR_TXN_EXECUTOR_H_
#define TDR_TXN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/update_record.h"
#include "txn/durability.h"
#include "txn/node.h"
#include "txn/op.h"
#include "txn/program.h"
#include "txn/trace.h"
#include "util/sim_time.h"

namespace tdr {

/// How a transaction ended.
enum class TxnOutcome {
  kCommitted = 0,
  kDeadlock = 1,    // victim of a wait-for cycle; updates discarded
  kRejected = 2,    // precommit hook (acceptance criterion) said no
  kUnavailable = 3, // never ran: a required master node was disconnected
                    // (synthesized by replication schemes, not Executor)
};

std::string_view TxnOutcomeToString(TxnOutcome outcome);

/// How a plan step behaves once its lock is granted.
enum class StepKind : std::uint8_t {
  /// Apply the op to this node's visible value (the replication-model
  /// default: each replica recomputes the action locally).
  kNormal = 0,
  /// Acquire the lock only; the value is installed later by a
  /// kQuorumApply step of the same op_index. Used by quorum writes to
  /// freeze the whole write set before reading the best version.
  kLockOnly = 1,
  /// Final step of a quorum write: every member of the op's write set
  /// (all steps sharing op_index) is now locked. Read the newest version
  /// among them, apply the op once, and install the SAME resulting value
  /// at every member — Gifford-style version-correct quorum writing.
  kQuorumApply = 2,
};

/// One action of an execution plan: apply `op` at node `node`. A
/// replication scheme compiles a Program into a plan; e.g. eager group
/// replication turns each write into Nodes consecutive steps — "the
/// transaction does N times as much work" (Figure 1).
struct ExecStep {
  NodeId node = 0;
  Op op;
  /// If false, the step is free of Action_Time (it still locks). This
  /// models the paper's footnote-2 alternative where replica updates are
  /// broadcast and applied in parallel, so a transaction's elapsed time
  /// does not grow with N.
  bool charge = true;
  StepKind kind = StepKind::kNormal;
  /// Groups the steps of one program op across nodes (quorum plans).
  int op_index = -1;
};

/// Everything a caller learns about a finished transaction.
struct TxnResult {
  TxnId id = kInvalidTxnId;
  NodeId origin = 0;
  TxnOutcome outcome = TxnOutcome::kDeadlock;
  /// Values observed by kRead steps, in step order.
  std::vector<Value> reads;
  /// Commit timestamp; only meaningful when committed.
  Timestamp commit_ts;
  /// Replica-update records for the lazy propagation pipeline: one per
  /// (node, object) written, with UpdateRecord::origin set to the node
  /// where the write was installed (the origin node for lazy-group root
  /// transactions; the owner node for lazy-master transactions). Built
  /// only when committed and RunOptions::record_updates is set.
  std::vector<UpdateRecord> updates;
  SimTime start_time;
  SimTime end_time;
  /// True if a kDeadlock outcome came from a wait timeout rather than a
  /// wait-for-graph cycle (timeouts fire on plain long waits too — the
  /// false-positive cost of timeout-based detection).
  bool timed_out = false;

  SimTime Duration() const { return end_time - start_time; }
};

/// Per-transaction completion hook carried by RunOptions as a plain
/// pointer. Replication schemes implement it to observe every outcome
/// (propagate on commit, count aborts) WITHOUT wrapping the caller's
/// done callback in a scheme lambda — the wrapper was a nested closure
/// too fat for any small-buffer store, i.e. one heap allocation per
/// transaction. Runs before the done callback.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  virtual void OnTxnDone(const TxnResult& result) = 0;
};

/// Event-driven transaction executor shared by every replication scheme.
///
/// Concurrency-control model (deliberately the paper's, §2/§3):
///  * writes take exclusive locks, held to commit/abort (strict 2PL);
///  * reads take no locks and see the last committed value
///    (committed-read) — own buffered writes are visible to self;
///  * each step costs `action_time` of simulated time after its lock is
///    granted, serializing replica updates exactly as the paper's model
///    chooses to ("we attempt to capture message handling costs by
///    serializing the individual updates", footnote 2);
///  * deadlocks abort the requesting transaction immediately (perfect
///    instant detection, the model's assumption).
///
/// Writes are buffered per (node, object) and installed atomically at
/// commit with the commit timestamp, so aborts need no undo and other
/// transactions never see uncommitted data.
///
/// Allocation model: transactions run in pooled Inflight records
/// (stable addresses, recycled through a free list) whose vectors —
/// steps, write buffer, observed timestamps, reads, update records —
/// keep their capacity across reuse. Write/timestamp buffers are flat
/// vectors sorted by (node, object), preserving the ordered-map
/// iteration order update-record determinism depends on. Scheduled
/// continuations capture (this, inflight*, txn id) and validate the id
/// (TxnIds are never reused), so there is no per-transaction lookup
/// structure at all. Scalar-valued workloads submitted through
/// NewPlan()/RunPlan() allocate nothing in steady state.
class Executor {
 public:
  using DoneCallback = std::function<void(const TxnResult&)>;
  /// Runs after the last step, before any update is installed. Return
  /// false to reject (abort) the transaction — this is how two-tier
  /// acceptance criteria veto a base transaction.
  using PrecommitHook = std::function<bool(const TxnResult&)>;

  struct RunOptions {
    SimTime action_time = SimTime::Millis(10);
    PrecommitHook precommit;        // optional
    /// Completion hook (not owned; may be null). See TxnObserver.
    TxnObserver* observer = nullptr;
    bool record_updates = true;     // build UpdateRecords at commit
    /// Take exclusive locks on reads as well — the "true serialization"
    /// the base model deliberately omits ("no read locks"). Ablation
    /// only; rates can only get worse with it on.
    bool lock_reads = false;
    /// If positive, a lock wait longer than this aborts the transaction
    /// (timeout-based deadlock detection, the production alternative to
    /// the wait-for graph the model assumes). The wait-for graph is
    /// still consulted first; timeouts additionally kill long
    /// non-deadlocked waits — the technique's false positives, which
    /// the ablation bench quantifies.
    SimTime wait_timeout = SimTime::Zero();
  };

  /// `nodes[i]->id()` must equal i. All pointers must outlive the
  /// executor; `metrics` receives its counts.
  Executor(sim::Simulator* sim, std::vector<Node*> nodes,
           obs::MetricsRegistry* metrics);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The one way to submit a transaction: NewPlan() hands out a cleared
  /// scratch plan (capacity retained run to run); fill it, then
  /// RunPlan() swaps it into a pooled transaction originating at
  /// `origin`. `done` fires exactly once, from simulated time, after
  /// commit or abort; RunPlan returns the transaction id. Do not hold
  /// the reference across RunPlan() or interleave two NewPlan() builds.
  std::vector<ExecStep>& NewPlan() {
    plan_scratch_.clear();
    return plan_scratch_;
  }
  TxnId RunPlan(NodeId origin, RunOptions opts, DoneCallback done);

  /// Plan capacity every new Inflight record is born with, so the
  /// scratch plan a birth's swap hands back never regrows from empty:
  /// the largest plan the benchmarks submit, eager group's 4 actions on
  /// 4 nodes (DESIGN.md §12.3).
  static constexpr std::size_t kPlanFloor = 16;

  /// Transactions currently executing or waiting.
  std::size_t ActiveCount() const { return active_; }

  /// Draws a transaction id from the executor's pool. Replica-update
  /// appliers that drive LockManagers directly must share this id space
  /// so the cluster-global wait-for graph stays consistent.
  TxnId AllocateTxnId() { return next_txn_id_++; }

  /// Attaches a protocol trace sink (may be null to detach). Not owned.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }

  /// Attaches the write-ahead-log seam (may be null — the default —
  /// for no durability). With a hook installed, Commit() logs every
  /// installed write to the touched node's WAL and defers lock release
  /// and completion until every touched log acknowledges durability.
  /// Not owned.
  void set_durability(DurabilityHook* hook) { durability_ = hook; }
  DurabilityHook* durability() const { return durability_; }

  std::uint64_t committed() const { return m_committed_.value(); }
  /// Deadlock victims: wait-for cycles plus wait timeouts.
  std::uint64_t deadlocked() const {
    return m_deadlocks_.value() + m_wait_timeouts_.value();
  }
  std::uint64_t rejected() const { return m_rejected_.value(); }
  /// Subset of deadlocked() caused by wait timeouts (only nonzero when
  /// RunOptions::wait_timeout is used).
  std::uint64_t wait_timeouts() const { return m_wait_timeouts_.value(); }

 private:
  /// Buffered write: final value per (node, object), flat-sorted.
  struct WriteEntry {
    NodeId node;
    ObjectId oid;
    Value value;
  };
  /// Timestamp each written (node, object) had before this txn's first
  /// write there — the "old time" carried by lazy replica updates
  /// (Figure 4). Flat-sorted like WriteEntry.
  struct ObservedEntry {
    NodeId node;
    ObjectId oid;
    Timestamp ts;
  };

  struct Inflight {
    TxnId id = kInvalidTxnId;
    std::uint32_t pool_index = 0;
    NodeId origin = 0;
    std::vector<ExecStep> steps;
    std::size_t pc = 0;
    RunOptions opts;
    DoneCallback done;
    std::vector<WriteEntry> buffer;        // sorted by (node, oid)
    std::vector<ObservedEntry> observed_ts;  // sorted by (node, oid)
    std::vector<NodeId> touched_nodes;     // sorted
    SimTime wait_started;
    /// Durability acks still outstanding (WAL commit path); locks
    /// release and `done` fires when this reaches zero.
    std::uint32_t pending_durability = 0;
    TxnResult result;
  };

  Node* node(NodeId id) { return nodes_[id]; }

  Inflight* AcquireInflight();
  void RecycleInflight(Inflight* t);
  Value* FindWrite(Inflight* t, NodeId node, ObjectId oid);
  void PutWrite(Inflight* t, NodeId node, ObjectId oid, Value value);
  void ObserveTs(Inflight* t, NodeId node, ObjectId oid,
                 const Timestamp& ts);
  const Timestamp* FindObserved(const Inflight* t, NodeId node,
                                ObjectId oid) const;
  void TouchNode(Inflight* t, NodeId node);

  void StepAcquire(Inflight* t);
  void StepExecute(Inflight* t);
  void ApplyStep(Inflight* t);
  void ApplyQuorumStep(Inflight* t);
  void BuildUpdateRecords(Inflight* t, Timestamp commit_ts);
  void Commit(Inflight* t);
  void CompleteCommit(Inflight* t);
  void OnDurable(Inflight* t, TxnId id);
  void Abort(Inflight* t, TxnOutcome outcome);
  void Finish(Inflight* t);
  void Emit(TraceEventType type, const Inflight* t, NodeId node,
            ObjectId oid, std::string detail = "");

  sim::Simulator* sim_;
  std::vector<Node*> nodes_;
  // Metric handles, acquired once at construction: the hot path bumps
  // through them in O(1) with no allocation and no name lookup. They
  // are the only store of the executor's counts.
  obs::MetricsRegistry::Counter m_started_;
  obs::MetricsRegistry::Counter m_lock_waits_;
  obs::MetricsRegistry::Counter m_deadlocks_;
  obs::MetricsRegistry::Counter m_wait_timeouts_;
  obs::MetricsRegistry::Counter m_committed_;
  obs::MetricsRegistry::Counter m_rejected_;
  obs::MetricsRegistry::HistogramHandle m_wait_micros_;
  TraceSink* trace_ = nullptr;
  DurabilityHook* durability_ = nullptr;
  // Inflight pool: stable addresses (unique_ptr slots), recycled
  // through a free list; vectors inside keep capacity across reuse.
  std::vector<std::unique_ptr<Inflight>> pool_;
  std::vector<std::uint32_t> free_inflight_;
  std::size_t active_ = 0;
  std::vector<ExecStep> plan_scratch_;
  std::vector<NodeId> members_scratch_;  // quorum write-set members
  TxnId next_txn_id_ = 1;
};

/// Appends `program` to `*out` as a single-node plan: every op runs at
/// `node`. Used by lazy schemes (root transaction is local), two-tier's
/// local transactions and single-node baselines.
void LocalPlanInto(NodeId node, const Program& program,
                   std::vector<ExecStep>* out);

}  // namespace tdr

#endif  // TDR_TXN_EXECUTOR_H_
