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
/// calls Run/RunUntil) dispatches turn by turn: it pops events one at
/// a time in exactly the sim's (time, seq) order, hands each
/// node-tagged callback to its worker's mailbox, and blocks on a
/// completion gate until the worker has run it. kAnyNode events run
/// inline on the coordinator. One event is in flight at a time, so the
/// oracle contract holds by construction; the differential suite
/// checks it against the sim.
///
/// Dispatch is allocation-free: scheduling acquires a pooled Task
/// (runtime/task_pool.h), moves the callback into it, and registers a
/// two-pointer wrapper with the event core — inside sim::Callback's
/// inline buffer, so steady state allocates nothing
/// (runtime_task_pool_test pins this with the alloc-audit harness).
class ThreadRuntime final : public Runtime {
 public:
  /// Pooled task wrappers materialized at birth; exhaustion grows the
  /// pool (counted, see TaskPool::grow_events).
  static constexpr std::size_t kTaskPoolCapacity = 256;

  /// `clock` is the cluster's own simulator, used as virtual clock and
  /// event core (never Run directly when this backend owns it).
  /// Profile metrics (worker busy time, mailbox depth, utilization) are
  /// published into `metrics` on Shutdown.
  ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                obs::MetricsRegistry* metrics);

  /// Shutdown(), then joins every worker.
  ~ThreadRuntime() override;

  // --- Runtime interface --------------------------------------------

  SimTime Now() const override { return clock_->Now(); }
  sim::EventId ScheduleAt(SimTime when, sim::Callback&& fn) override {
    return ScheduleAtNode(kAnyNode, when, std::move(fn));
  }
  sim::EventId ScheduleAfter(SimTime delay, sim::Callback&& fn) override {
    return ScheduleAfterNode(kAnyNode, delay, std::move(fn));
  }
  sim::EventId RepeatEvery(SimTime interval, sim::Callback&& fn) override;
  bool Cancel(sim::EventId id) override { return clock_->Cancel(id); }
  std::uint64_t RunUntil(SimTime horizon) override;
  std::uint64_t Run(std::uint64_t max_events = (1ULL << 32)) override;
  bool Idle() const override { return clock_->Idle(); }
  std::size_t PendingEvents() const override {
    return clock_->PendingEvents();
  }
  sim::EventId ScheduleAtNode(std::uint32_t node, SimTime when,
                              sim::Callback&& fn) override;
  sim::EventId ScheduleAfterNode(std::uint32_t node, SimTime delay,
                                 sim::Callback&& fn) override {
    return ScheduleAtNode(node, After(delay), std::move(fn));
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
  /// Both are deterministic: a function of the seeded scenario, not of
  /// wall-clock races.
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t inline_events() const { return inline_events_; }
  /// Always 0 (one event per turn); kept because perfbench still reads it.
  std::uint64_t epochs() const { return 0; }
  const TaskPool& task_pool() const { return *pool_; }
  /// Wall-clock seconds spent inside Run/RunUntil (the denominator of
  /// worker utilization), and the virtual seconds they advanced.
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

  /// Wrapper fire: runs on `task->node`'s worker (blocking on the
  /// gate) or inline; releases one-shot tasks.
  void RunImmediate(Task* task);
  /// Invokes the task's callback (borrowed or owned).
  void RunTaskBody(Task* task);

  void WorkerLoop(std::uint32_t index);
  void PublishMetrics();

  sim::Simulator* clock_;
  obs::MetricsRegistry* metrics_;
  std::shared_ptr<TaskPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  StopBarrier barrier_;
  Gate gate_;  // one dispatch in flight at a time
  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t inline_events_ = 0;

  double wall_seconds_ = 0;
  double sim_seconds_ = 0;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_THREAD_RUNTIME_H_
