#ifndef TDR_RUNTIME_THREAD_RUNTIME_H_
#define TDR_RUNTIME_THREAD_RUNTIME_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "sim/simulator.h"

namespace tdr::runtime {

/// runtime::Runtime, the simulator under its old interface name:
/// perfbench still spells it so. The alias goes with the benchmark
/// change that retires `threads_lockstep`.
using Runtime = sim::Simulator;

/// Real-threads execution backend: every cluster node gets its own OS
/// worker thread with an MPSC mailbox, and node-tagged events execute
/// on that node's thread.
///
/// Ordering is the key design decision. The cluster shares genuinely
/// cross-node state — one Executor, one WaitForGraph, one metrics
/// registry — so nodes cannot fire events concurrently without giving
/// up the semantics the paper's model (and the sim oracle) defines. So
/// this class is only the simulator's Dispatcher: the cluster's own
/// sim::Simulator keeps the virtual clock and the (time, seq) order,
/// and whoever runs it (the coordinator) fires events one at a time.
/// For each fired event with a node tag in range, Dispatch lends the
/// callback to that node's worker through the one in-flight Task and
/// blocks on a completion gate until the worker has run it; kAnyNode
/// (and out-of-range) events run inline on the coordinator. One event
/// is in flight at a time, so the oracle contract holds by
/// construction; the differential suite checks it against the sim.
///
/// Dispatch allocates nothing: the callback stays in the simulator's
/// fire path and the Task is a member.
class ThreadRuntime final : public sim::Dispatcher {
 public:
  /// Attaches to `clock` as its dispatcher until destroyed. Profile
  /// metrics (worker utilization) are published into `metrics` on
  /// Shutdown.
  ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                obs::MetricsRegistry* metrics);

  /// Detaches from the clock, then Shutdown().
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  /// Runs `fn` on `node`'s worker, or inline when the tag names no
  /// worker or the backend is stopped.
  void Dispatch(std::uint32_t node, sim::Callback& fn) override;

  /// Stop/drain barrier: closes every mailbox, waits for all workers to
  /// drain and rendezvous, joins them, publishes profile metrics.
  /// Idempotent; after shutdown every event runs inline on the caller.
  /// perfbench calls it, as it reads dispatched(), inline_events() and
  /// epochs(); those signatures stay until the benchmark change that
  /// retires `threads_lockstep`.
  void Shutdown();

  bool stopped() const { return stopped_; }

  const Mailbox& mailbox(std::uint32_t node) const {
    return workers_[node]->box;
  }
  /// Events executed on worker threads / inline on the coordinator.
  /// Both are deterministic: a function of the seeded scenario, not of
  /// wall-clock races.
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t inline_events() const { return inline_events_; }
  /// Always 0 (one event per turn); only perfbench reads it, until the
  /// benchmark change that retires `threads_lockstep`.
  std::uint64_t epochs() const { return 0; }

 private:
  using SteadyClock = std::chrono::steady_clock;

  struct Worker {
    Mailbox box;
    SteadyClock::duration busy{};
    /// When the worker's first task started and its last one ended.
    SteadyClock::time_point first_start;
    SteadyClock::time_point last_end;
    std::uint64_t executed = 0;
    std::thread thread;
  };

  void WorkerLoop(std::uint32_t index);
  void PublishMetrics();

  sim::Simulator* clock_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  StopBarrier barrier_;
  Gate gate_;  // one dispatch in flight at a time
  Task task_;  // lends the in-flight callback to a worker
  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t inline_events_ = 0;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_THREAD_RUNTIME_H_
