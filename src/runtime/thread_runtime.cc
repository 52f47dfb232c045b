#include "runtime/thread_runtime.h"

#include <utility>

namespace tdr::runtime {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ToSeconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Accumulates the wall/sim costs of one Run/RunUntil call.
class RunScope {
 public:
  RunScope(double* wall, double* sim_secs, const sim::Simulator* clock)
      : wall_(wall),
        sim_secs_(sim_secs),
        clock_(clock),
        wall_start_(SteadyClock::now()),
        sim_start_(clock->Now()) {}
  ~RunScope() {
    *wall_ += ToSeconds(SteadyClock::now() - wall_start_);
    *sim_secs_ += (clock_->Now() - sim_start_).seconds();
  }

 private:
  double* wall_;
  double* sim_secs_;
  const sim::Simulator* clock_;
  SteadyClock::time_point wall_start_;
  SimTime sim_start_;
};

}  // namespace

ThreadRuntime::ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                             obs::MetricsRegistry* metrics)
    : clock_(clock),
      metrics_(metrics),
      pool_(std::make_shared<TaskPool>(kTaskPoolCapacity)),
      barrier_(num_nodes) {
  workers_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: a worker's loop touches just
  // its own slot, but the vector must not grow under it.
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadRuntime::~ThreadRuntime() { Shutdown(); }

sim::EventId ThreadRuntime::ScheduleAtNode(std::uint32_t node, SimTime when,
                                           sim::Callback&& fn) {
  // Pooled wrapper: the callback moves into the task at schedule time,
  // so the lambda registered with the clock captures two pointers and
  // stays inside sim::Callback's inline buffer — no allocation.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->node = node;
  return clock_->ScheduleAt(
      when, [this, lease = TaskLease(pool_, t)]() mutable {
        RunImmediate(lease.take());
      });
}

sim::EventId ThreadRuntime::RepeatEvery(SimTime interval,
                                        sim::Callback&& fn) {
  // The series' task holds the callback for its whole life and every
  // tick runs it borrowed (`fn` set): the wrapper's lease releases the
  // task when the series is cancelled or the clock is torn down.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->fn = &t->owned;
  t->node = kAnyNode;
  return clock_->RepeatEvery(
      interval, [this, lease = TaskLease(pool_, t)]() mutable {
        RunImmediate(lease.get());
      });
}

void ThreadRuntime::RunImmediate(Task* task) {
  const bool one_shot = task->fn == nullptr;
  const std::uint32_t node = task->node;
  if (node >= workers_.size() || stopped_) {
    ++inline_events_;
    RunTaskBody(task);
  } else {
    task->done = &gate_;
    gate_.Reset();
    if (workers_[node]->box.Push(task)) {
      ++dispatched_;
      gate_.Wait();
    } else {
      // Closed mailbox (shutdown race): degrade to inline execution —
      // same order, same result, just no thread hop.
      task->done = nullptr;
      ++inline_events_;
      RunTaskBody(task);
    }
  }
  if (one_shot) {
    pool_->Release(task);
  } else {
    task->done = nullptr;  // repeat tick: the wrapper keeps the task
  }
}

void ThreadRuntime::RunTaskBody(Task* task) {
  if (task->fn != nullptr) {
    (*task->fn)();
  } else {
    task->owned();
    // Destroy the capture (releasing pooled payload leases etc.) right
    // after the call, at the same serial position the sim oracle does.
    task->owned = nullptr;
  }
}

void ThreadRuntime::WorkerLoop(std::uint32_t index) {
  Worker& w = *workers_[index];
  while (Task* task = w.box.Pop()) {
    SteadyClock::time_point start = SteadyClock::now();
    RunTaskBody(task);
    w.busy += SteadyClock::now() - start;
    ++w.executed;
    // Last touch of the task: once the gate fires the coordinator may
    // recycle it.
    task->done->Signal();
  }
  // Mailbox closed and drained: rendezvous so no worker exits while a
  // sibling still holds undrained work.
  barrier_.ArriveAndWait();
}

std::uint64_t ThreadRuntime::RunUntil(SimTime horizon) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  return clock_->RunUntil(horizon);
}

std::uint64_t ThreadRuntime::Run(std::uint64_t max_events) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  return clock_->Run(max_events);
}

void ThreadRuntime::Shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) w->box.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  PublishMetrics();
}

double ThreadRuntime::worker_busy_seconds() const {
  double total = 0;
  for (const auto& w : workers_) total += ToSeconds(w->busy);
  return total;
}

void ThreadRuntime::PublishMetrics() {
  // Wall-clock-derived values go to kProfile metrics only: they are
  // nondeterministic by nature and must never leak into deterministic
  // snapshots (obs::SnapshotOptions excludes kProfile by default), so
  // threads-backend snapshots stay bit-identical to the sim oracle's.
  obs::MetricsRegistry::StatsHandle busy =
      metrics_->GetProfile("runtime.worker_busy_seconds");
  obs::MetricsRegistry::StatsHandle depth =
      metrics_->GetProfile("runtime.mailbox_max_depth");
  obs::MetricsRegistry::StatsHandle util =
      metrics_->GetProfile("runtime.worker_utilization");
  for (const auto& w : workers_) {
    busy.Record(ToSeconds(w->busy));
    depth.Record(static_cast<double>(w->box.max_depth()));
    if (wall_seconds_ > 0) {
      util.Record(ToSeconds(w->busy) / wall_seconds_);
    }
  }
}

}  // namespace tdr::runtime
