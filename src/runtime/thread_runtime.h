#ifndef TDR_RUNTIME_THREAD_RUNTIME_H_
#define TDR_RUNTIME_THREAD_RUNTIME_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/task_pool.h"
#include "sim/simulator.h"

namespace tdr::runtime {

/// Real-threads execution backend: every cluster node gets its own OS
/// worker thread with an MPSC mailbox, and node-tagged events execute
/// on that node's thread.
///
/// Ordering is the key design decision. The cluster shares genuinely
/// cross-node state — one Executor, one WaitForGraph, one metrics
/// registry — so nodes cannot fire arbitrary events concurrently
/// without giving up the semantics the paper's model (and the sim
/// oracle) defines. The backend wraps the cluster's own sim::Simulator
/// as the virtual clock and event order, and a coordinator (whoever
/// calls Run/RunUntil) drives it in one of two dispatch modes:
///
///  * kTurnBased (default): the coordinator pops events one at a time
///    in exactly the sim's (time, seq) order, hands each node-tagged
///    callback to its worker's mailbox, and blocks on a completion
///    gate until the worker has run it. kAnyNode events run inline.
///  * kEpoch: the coordinator collects every ready event that shares
///    the next virtual timestamp into one WAVE, plans it into
///    segments, and retires each segment with a single counted
///    barrier instead of a per-event gate round-trip. Runs of
///    same-node events collapse into chains (zero hand-offs inside a
///    chain); at a node switch the finishing worker batons the next
///    chain directly to its peer's mailbox (one wake instead of two);
///    and consecutive ScheduleParallel* events on distinct nodes —
///    callbacks that touch only node-private state, see runtime.h —
///    genuinely overlap across workers. Untagged events run inline on
///    the coordinator, as in turn-based mode.
///
/// Epoch mode preserves the oracle contract by construction: exclusive
/// events still execute in exact (time, seq) order (chains and batons
/// are just cheaper signalling for the same total order), parallel
/// groups only contain events whose mutual order is unobservable, and
/// schedules issued inside a parallel group are deferred and replayed
/// in plan-slot order so sequence numbers come out exactly as the
/// serial sim would have assigned them. The differential suite sweeps
/// both modes against the sim oracle.
///
/// Epoch mode requires every event to be scheduled THROUGH this
/// runtime (true for the whole cluster): events scheduled directly on
/// the underlying simulator would execute during wave collection,
/// ahead of lower-seq collected events.
///
/// Dispatch is allocation-free in both modes: scheduling acquires a
/// pooled Task (runtime/task_pool.h), moves the callback into it, and
/// registers a two-pointer wrapper with the event core — inside
/// sim::Callback's inline buffer, so steady state allocates nothing
/// (runtime_task_pool_test pins this with the alloc-audit harness).
class ThreadRuntime final : public Runtime {
 public:
  enum class DispatchMode : std::uint8_t {
    kTurnBased = 0,
    kEpoch = 1,
  };

  struct Options {
    DispatchMode dispatch = DispatchMode::kTurnBased;
  };

  /// Pooled task wrappers materialized at birth; exhaustion grows the
  /// pool (counted, see TaskPool::grow_events).
  static constexpr std::size_t kTaskPoolCapacity = 256;

  /// `clock` is the cluster's own simulator, used as virtual clock and
  /// event core (never Run directly when this backend owns it).
  /// `metrics` may be null; profile metrics (worker busy time, mailbox
  /// depth, epoch shape, wall/sim ratio) are published on Shutdown.
  ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                Options options, obs::MetricsRegistry* metrics);

  /// Shutdown(), then joins every worker.
  ~ThreadRuntime() override;

  // --- Runtime interface --------------------------------------------

  SimTime Now() const override { return clock_->Now(); }
  sim::EventId ScheduleAt(SimTime when, sim::Callback fn) override {
    return ScheduleAtNode(kAnyNode, when, std::move(fn));
  }
  sim::EventId ScheduleAfter(SimTime delay, sim::Callback fn) override {
    return ScheduleAfterNode(kAnyNode, delay, std::move(fn));
  }
  sim::EventId RepeatEvery(SimTime interval, sim::Callback fn) override;
  bool Cancel(sim::EventId id) override;
  std::uint64_t RunUntil(SimTime horizon) override;
  std::uint64_t Run(std::uint64_t max_events = (1ULL << 32)) override;
  bool Idle() const override { return clock_->Idle(); }
  std::size_t PendingEvents() const override {
    return clock_->PendingEvents();
  }
  sim::EventId ScheduleAtNode(std::uint32_t node, SimTime when,
                              sim::Callback fn) override {
    return Schedule(node, when, std::move(fn), ExecClass::kExclusive);
  }
  sim::EventId ScheduleAfterNode(std::uint32_t node, SimTime delay,
                                 sim::Callback fn) override {
    return Schedule(node, After(delay), std::move(fn),
                    ExecClass::kExclusive);
  }
  sim::EventId ScheduleParallelAtNode(std::uint32_t node, SimTime when,
                                      sim::Callback fn) override {
    return Schedule(node, when, std::move(fn), ExecClass::kParallel);
  }
  sim::EventId ScheduleParallelAfterNode(std::uint32_t node, SimTime delay,
                                         sim::Callback fn) override {
    return Schedule(node, After(delay), std::move(fn),
                    ExecClass::kParallel);
  }

  // --- Lifecycle ----------------------------------------------------

  /// Stop/drain barrier: closes every mailbox, waits for all workers to
  /// drain and rendezvous, joins them, publishes profile metrics.
  /// Idempotent; after shutdown every event runs inline on the caller.
  void Shutdown();

  bool stopped() const { return stopped_; }

  // --- Introspection (stress suite + bench_runtime) -----------------

  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  const Mailbox& mailbox(std::uint32_t node) const {
    return workers_[node]->box;
  }
  /// Events executed on worker threads / inline on the coordinator.
  /// Both are deterministic: epoch mode classifies by the PLANNED lane
  /// (a chain run on the pushing thread because its mailbox had closed
  /// still counts as dispatched), so the split is a pure function of
  /// the seeded scenario, not of wall-clock races.
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t inline_events() const { return inline_events_; }
  /// Epoch-mode shape: waves executed, widest wave, and the
  /// coordinator's dispatch-queue high-water mark (plan slots).
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t epoch_width_max() const { return epoch_width_max_; }
  std::size_t dispatch_queue_max_depth() const { return plan_high_water_; }
  const TaskPool& task_pool() const { return *pool_; }
  /// Wall-clock seconds spent inside Run/RunUntil, and the virtual
  /// seconds they advanced — their ratio is the wall/sim speed metric.
  double wall_seconds() const { return wall_seconds_; }
  double sim_seconds() const { return sim_seconds_; }
  /// Total wall-clock seconds workers spent executing callbacks. Only
  /// stable after Shutdown() (the destructor calls it).
  double worker_busy_seconds() const;

 private:
  struct Worker {
    Mailbox box;
    std::chrono::steady_clock::duration busy{};
    std::uint64_t executed = 0;
    std::thread thread;
  };

  /// RAII ownership of a pooled task inside a scheduling wrapper: the
  /// wrapper fire consumes (take()) the task; a wrapper destroyed
  /// without firing — cancellation, or simulator teardown — returns it
  /// to the pool. Holds the pool shared so wrappers still pending in
  /// the event core at simulator destruction (which may outlive this
  /// runtime) release into a live pool.
  class TaskLease {
   public:
    TaskLease(std::shared_ptr<TaskPool> pool, Task* task)
        : pool_(std::move(pool)), task_(task) {}
    TaskLease(TaskLease&& other) noexcept
        : pool_(std::move(other.pool_)), task_(other.task_) {
      other.task_ = nullptr;
    }
    TaskLease(const TaskLease&) = delete;
    TaskLease& operator=(const TaskLease&) = delete;
    TaskLease& operator=(TaskLease&&) = delete;
    ~TaskLease() {
      if (task_ != nullptr) pool_->Release(task_);
    }

    Task* take() {
      Task* t = task_;
      task_ = nullptr;
      return t;
    }
    Task* get() const { return task_; }

   private:
    std::shared_ptr<TaskPool> pool_;
    Task* task_;
  };

  SimTime After(SimTime delay) const {
    return clock_->Now() + (delay < SimTime::Zero() ? SimTime::Zero() : delay);
  }

  /// Every schedule funnels here: defers if called from inside a
  /// parallel group, else registers a pooled wrapper with the clock.
  sim::EventId Schedule(std::uint32_t node, SimTime when, sim::Callback fn,
                        ExecClass cls);
  /// Wrapper fire: appends to the wave plan (collecting) or executes
  /// immediately (turn-based / stopped).
  void OnWrapperFire(Task* task);
  void OnRepeatFire(Task* task);
  /// Turn-based per-event protocol: run on `task->node`'s worker
  /// (blocking on the gate) or inline; releases one-shot tasks.
  void RunImmediate(Task* task);
  /// Invokes the task's callback (borrowed or owned) with the
  /// deferred-schedule context set.
  void RunTaskBody(Task* task);
  /// Runs a chain and its baton successors that land back on this
  /// thread (closed mailboxes); `worker` null on the coordinator.
  void RunChainFrom(Task* head, Worker* worker);

  // --- Epoch engine (coordinator only) ------------------------------
  std::uint64_t RunEpochs(SimTime horizon, std::uint64_t max_events,
                          bool bounded_horizon);
  void ExecuteWave();
  void ExecSerialSegment(std::size_t begin, std::size_t end);
  void ExecParallelGroup(std::size_t begin, std::size_t end);
  /// Resolved executor for a planned task: its node's worker index,
  /// or kCoord for untagged tasks (and everything after shutdown).
  std::uint32_t LaneOf(const Task* task) const;
  void ReleaseWave();

  void WorkerLoop(std::uint32_t index);
  void PublishMetrics();

  static constexpr std::uint32_t kCoord = 0xfffffffeu;

  sim::Simulator* clock_;
  Options options_;
  obs::MetricsRegistry* metrics_;
  std::shared_ptr<TaskPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  StopBarrier barrier_;
  Gate gate_;  // one dispatch in flight at a time (turn-based)
  EpochGate epoch_gate_;  // one per in-flight segment (epoch)
  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t inline_events_ = 0;

  // Wave state (coordinator-owned; workers see tasks via mailbox HB).
  bool collecting_ = false;
  std::vector<Task*> plan_;
  std::size_t plan_high_water_ = 0;
  /// Plan index currently executing — the floor of Cancel's sweep.
  /// Written by whichever thread runs each exclusive task; the baton
  /// hand-off orders every write-then-read.
  std::size_t plan_cursor_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t epoch_width_max_ = 0;
  // Scratch reused across waves (capacity sticks, no per-wave allocs).
  std::vector<Task*> group_heads_;
  std::vector<Task*> group_tails_;
  std::vector<Task*> closed_chains_;  // chains a closed mailbox refused
  obs::MetricsRegistry::StatsHandle epoch_width_profile_;

  double wall_seconds_ = 0;
  double sim_seconds_ = 0;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_THREAD_RUNTIME_H_
