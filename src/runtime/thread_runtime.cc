#include "runtime/thread_runtime.h"

#include <algorithm>

namespace tdr::runtime {

ThreadRuntime::ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                             obs::MetricsRegistry* metrics)
    : clock_(clock), metrics_(metrics), barrier_(num_nodes) {
  task_.done = &gate_;
  workers_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: a worker's loop touches just
  // its own slot, but the vector must not grow under it.
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
  clock_->set_dispatcher(this);
}

ThreadRuntime::~ThreadRuntime() {
  clock_->set_dispatcher(nullptr);
  Shutdown();
}

void ThreadRuntime::Dispatch(std::uint32_t node, sim::Callback& fn) {
  if (node < workers_.size() && !stopped_) {
    task_.fn = &fn;
    gate_.Reset();
    if (workers_[node]->box.Push(&task_)) {
      ++dispatched_;
      gate_.Wait();
      return;
    }
    // Closed mailbox: run inline — same order, same result, just no
    // thread hop.
  }
  ++inline_events_;
  fn();
}

void ThreadRuntime::WorkerLoop(std::uint32_t index) {
  Worker& w = *workers_[index];
  while (Task* task = w.box.Pop()) {
    const SteadyClock::time_point start = SteadyClock::now();
    (*task->fn)();
    const SteadyClock::time_point end = SteadyClock::now();
    if (w.executed == 0) w.first_start = start;
    w.last_end = end;
    w.busy += end - start;
    ++w.executed;
    // Last touch of the task: once the gate fires the coordinator
    // reuses it.
    task->done->Signal();
  }
  // Mailbox closed and drained: rendezvous so no worker exits while a
  // sibling still holds undrained work.
  barrier_.ArriveAndWait();
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

void ThreadRuntime::PublishMetrics() {
  // Worker utilization: each worker's busy time over the wall time the
  // backend was dispatching, from the first dispatched event's start to
  // the last one's end. Wall-clock values go to kProfile metrics only:
  // they are nondeterministic by nature and must never leak into
  // deterministic snapshots (obs::SnapshotOptions excludes kProfile by
  // default), so threads-backend snapshots stay bit-identical to the
  // sim oracle's. perfbench reads this metric; it goes with the
  // benchmark change that retires `threads_lockstep`.
  SteadyClock::time_point first = SteadyClock::time_point::max();
  SteadyClock::time_point last = SteadyClock::time_point::min();
  for (const auto& w : workers_) {
    if (w->executed == 0) continue;
    first = std::min(first, w->first_start);
    last = std::max(last, w->last_end);
  }
  if (first >= last) return;
  const double span = std::chrono::duration<double>(last - first).count();
  obs::MetricsRegistry::StatsHandle util =
      metrics_->GetProfile("runtime.worker_utilization");
  for (const auto& w : workers_) {
    util.Record(std::chrono::duration<double>(w->busy).count() / span);
  }
}

}  // namespace tdr::runtime
