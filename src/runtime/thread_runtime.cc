#include "runtime/thread_runtime.h"

#include <cassert>
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

/// The task whose callback is executing on this thread — the context
/// that routes Schedule* calls from inside a parallel group into the
/// task's deferred buffer. Thread-local so concurrent parallel-class
/// tasks each see their own context.
thread_local Task* tls_current_task = nullptr;

}  // namespace

ThreadRuntime::ThreadRuntime(sim::Simulator* clock, std::uint32_t num_nodes,
                             Options options, obs::MetricsRegistry* metrics)
    : clock_(clock),
      options_(options),
      metrics_(metrics),
      pool_(std::make_shared<TaskPool>(kTaskPoolCapacity)),
      barrier_(num_nodes) {
  if (metrics_ != nullptr && options_.dispatch == DispatchMode::kEpoch) {
    epoch_width_profile_ = metrics_->GetProfile("runtime.epoch_width");
  }
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

sim::EventId ThreadRuntime::Schedule(std::uint32_t node, SimTime when,
                                     sim::Callback fn, ExecClass cls) {
  Task* cur = tls_current_task;
  if (cur != nullptr && cur->parallel_group) {
    // Called from inside an in-flight parallel group: the shared event
    // core is off limits, so buffer the request on the calling task.
    // The coordinator replays buffers in plan-slot order at the group
    // barrier, which assigns exactly the sequence numbers the serial
    // oracle would have.
    DeferredSchedule d;
    d.node = node;
    d.when = when;
    d.cls = cls;
    d.fn = std::move(fn);
    cur->deferred.push_back(std::move(d));
    return sim::kInvalidEventId;
  }
  // Pooled wrapper: the callback moves into the task at schedule time,
  // so the lambda registered with the clock captures two pointers and
  // stays inside sim::Callback's inline buffer — no allocation.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->node = node;
  t->cls = cls;
  sim::EventId id =
      clock_->ScheduleAt(when, [this, lease = TaskLease(pool_, t)]() mutable {
        OnWrapperFire(lease.take());
      });
  t->origin = id;
  return id;
}

sim::EventId ThreadRuntime::RepeatEvery(SimTime interval, sim::Callback fn) {
  assert(!(tls_current_task != nullptr && tls_current_task->parallel_group) &&
         "RepeatEvery from a parallel-class task is unsupported");
  // The series' task holds the callback for its whole life and every
  // tick runs it borrowed (`fn` set): the wrapper's lease releases the
  // task when the series is cancelled or the clock is torn down.
  Task* t = pool_->Acquire();
  t->owned = std::move(fn);
  t->fn = &t->owned;
  t->node = kAnyNode;
  sim::EventId id = clock_->RepeatEvery(
      interval, [this, lease = TaskLease(pool_, t)]() mutable {
        OnRepeatFire(lease.get());
      });
  t->origin = id;
  return id;
}

bool ThreadRuntime::Cancel(sim::EventId id) {
  if (id == sim::kInvalidEventId) return false;
  bool hit = clock_->Cancel(id);
  // A same-timestamp cancel may target an event already collected into
  // the executing wave (popped from the clock, not yet run): sweep the
  // not-yet-executed plan suffix. Only exclusive tasks may Cancel, and
  // they run in strict plan order, so plan_cursor_ is the exact floor.
  Task* self = tls_current_task;
  for (std::size_t k = plan_cursor_; k < plan_.size(); ++k) {
    Task* t = plan_[k];
    if (t == self || t->cancelled || t->origin != id) continue;
    t->cancelled = true;
    hit = true;
    break;
  }
  return hit;
}

void ThreadRuntime::OnWrapperFire(Task* task) {
  if (collecting_) {
    plan_.push_back(task);
    return;
  }
  RunImmediate(task);
}

void ThreadRuntime::OnRepeatFire(Task* task) {
  if (collecting_) {
    plan_.push_back(task);
    return;
  }
  RunImmediate(task);
}

void ThreadRuntime::RunImmediate(Task* task) {
  const bool one_shot = task->fn == nullptr;
  const std::uint32_t node = task->node;
  if (node >= workers_.size() || stopped_) {
    ++inline_events_;
    RunTaskBody(task);
  } else {
    task->done = &gate_;
    task->weight = 1;
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
  Task* prev = tls_current_task;
  tls_current_task = task;
  if (task->fn != nullptr) {
    (*task->fn)();
  } else {
    task->owned();
    // Destroy the capture (releasing pooled payload leases etc.) right
    // after the call, at the same serial position the sim oracle does.
    task->owned = nullptr;
  }
  tls_current_task = prev;
}

void ThreadRuntime::RunChainFrom(Task* head, Worker* worker) {
  Task* chain = head;
  while (chain != nullptr) {
    Task* next_chain = nullptr;
    for (Task* t = chain; t != nullptr;) {
      Task* next = t->run_next;
      if (t->cls == ExecClass::kExclusive && plan_cursor_ < t->plan_index) {
        // Execution progress for Cancel's sweep; ordered by the baton.
        plan_cursor_ = t->plan_index;
      }
      if (!t->cancelled) {
        if (worker != nullptr) {
          SteadyClock::time_point start = SteadyClock::now();
          RunTaskBody(t);
          worker->busy += SteadyClock::now() - start;
          ++worker->executed;
        } else {
          RunTaskBody(t);
        }
      }
      if (next == nullptr) {
        // Chain tail. Read everything needed before signalling: once
        // the gate fires the coordinator may recycle the task.
        Task* succ = t->chain_next;
        EpochGate* arrive = t->epoch_gate;
        Gate* done = t->done;
        // Baton hand-off: push the successor chain straight to its
        // worker — one wake per node switch instead of two per event.
        // A closed mailbox (shutdown) refuses it: run it on this thread.
        if (succ != nullptr && !workers_[succ->exec_node]->box.Push(succ)) {
          next_chain = succ;
        }
        if (arrive != nullptr) arrive->Arrive();
        if (done != nullptr) done->Signal();
      }
      t = next;
    }
    chain = next_chain;
  }
}

std::uint32_t ThreadRuntime::LaneOf(const Task* task) const {
  return !stopped_ && task->node < workers_.size() ? task->node : kCoord;
}

std::uint64_t ThreadRuntime::RunEpochs(SimTime horizon,
                                       std::uint64_t max_events,
                                       bool bounded_horizon) {
  std::uint64_t ran = 0;
  SimTime next;
  while (ran < max_events && clock_->PeekNextTime(&next) &&
         (!bounded_horizon || next <= horizon)) {
    // Collect one WAVE: every ready event at `next`. Firing wrappers
    // append their tasks to the plan instead of dispatching. Events a
    // wave schedules back at the same timestamp (zero-delay follow-ups)
    // have higher seq and form the next wave — still same-T, exactly
    // the serial order.
    collecting_ = true;
    plan_.clear();
    const std::uint64_t budget = max_events - ran;
    std::uint64_t steps = 0;
    while (steps < budget) {
      if (!clock_->Step()) break;
      ++steps;
      SimTime t2;
      if (!clock_->PeekNextTime(&t2) || t2 != next) break;
    }
    collecting_ = false;
    ran += steps;
    ExecuteWave();
    ReleaseWave();
  }
  return ran;
}

void ThreadRuntime::ExecuteWave() {
  const std::size_t n = plan_.size();
  if (n == 0) return;
  ++epochs_;
  if (n > epoch_width_max_) epoch_width_max_ = n;
  if (n > plan_high_water_) plan_high_water_ = n;
  epoch_width_profile_.Record(static_cast<double>(n));
  plan_cursor_ = 0;
  for (std::size_t k = 0; k < n; ++k) {
    plan_[k]->plan_index = static_cast<std::uint32_t>(k);
  }
  std::size_t i = 0;
  while (i < n) {
    Task* t = plan_[i];
    if (t->cls == ExecClass::kParallel) {
      // Maximal run of parallel-class tasks: one concurrent group.
      std::size_t j = i;
      while (j < n && plan_[j]->cls == ExecClass::kParallel) ++j;
      ExecParallelGroup(i, j);
      i = j;
    } else if (LaneOf(t) == kCoord) {
      // Untagged exclusive: inline on the coordinator, exactly like
      // turn-based dispatch.
      t->exec_node = kCoord;
      plan_cursor_ = i;
      if (!t->cancelled) RunTaskBody(t);
      ++i;
    } else {
      // Maximal run of worker-lane exclusive tasks: chained serial
      // segment, retired with one barrier.
      std::size_t j = i;
      while (j < n && plan_[j]->cls == ExecClass::kExclusive &&
             LaneOf(plan_[j]) != kCoord) {
        ++j;
      }
      ExecSerialSegment(i, j);
      i = j;
    }
  }
  plan_cursor_ = n;
  // Planned-lane accounting, applied after the wave so cancellation is
  // settled: deterministic even when a closed mailbox moves a chain
  // onto the pushing thread (see dispatched()).
  for (std::size_t k = 0; k < n; ++k) {
    Task* t = plan_[k];
    if (t->cancelled) continue;
    if (t->exec_node == kCoord) {
      ++inline_events_;
    } else {
      ++dispatched_;
    }
  }
}

void ThreadRuntime::ExecSerialSegment(std::size_t begin, std::size_t end) {
  // Every task here is node-tagged (see ExecuteWave). Chain consecutive
  // same-node tasks (zero hand-offs inside a chain); baton-link each
  // chain's tail to the next chain's head; the last tail owes the
  // segment barrier.
  Task* first_chain = nullptr;
  Task* chain_head = nullptr;
  Task* tail = nullptr;
  std::uint32_t chain_len = 0;
  for (std::size_t k = begin; k < end; ++k) {
    Task* t = plan_[k];
    t->run_next = nullptr;
    t->chain_next = nullptr;
    t->epoch_gate = nullptr;
    t->done = nullptr;
    t->weight = 1;
    t->exec_node = t->node;
    if (chain_head != nullptr && t->exec_node == chain_head->exec_node) {
      tail->run_next = t;
      tail = t;
      ++chain_len;
    } else {
      if (chain_head != nullptr) {
        chain_head->weight = chain_len;
        tail->chain_next = t;
      } else {
        first_chain = t;
      }
      chain_head = t;
      tail = t;
      chain_len = 1;
    }
  }
  chain_head->weight = chain_len;
  tail->epoch_gate = &epoch_gate_;
  epoch_gate_.Reset(1);
  if (!workers_[first_chain->exec_node]->box.Push(first_chain)) {
    RunChainFrom(first_chain, nullptr);  // closed mailbox: run it here
  }
  epoch_gate_.Wait();
}

void ThreadRuntime::ExecParallelGroup(std::size_t begin, std::size_t end) {
  const std::size_t num_workers = workers_.size();
  group_heads_.assign(num_workers, nullptr);
  group_tails_.assign(num_workers, nullptr);
  closed_chains_.clear();
  std::size_t chains = 0;
  for (std::size_t k = begin; k < end; ++k) {
    Task* t = plan_[k];
    t->run_next = nullptr;
    t->chain_next = nullptr;
    t->epoch_gate = nullptr;
    t->done = nullptr;
    t->weight = 1;
    t->parallel_group = true;
    const std::uint32_t lane = LaneOf(t);
    t->exec_node = lane;
    if (lane != kCoord) {
      // Same-node tasks keep FIFO order in one chain per worker.
      if (group_heads_[lane] == nullptr) {
        group_heads_[lane] = t;
        ++chains;
      } else {
        group_tails_[lane]->run_next = t;
        ++group_heads_[lane]->weight;
      }
      group_tails_[lane] = t;
    }
  }
  // Arm the barrier before anything is in flight: one arrival per
  // chain (its tail).
  epoch_gate_.Reset(chains);
  for (std::size_t node = 0; node < num_workers; ++node) {
    Task* head = group_heads_[node];
    if (head == nullptr) continue;
    group_tails_[node]->epoch_gate = &epoch_gate_;
    if (!workers_[node]->box.Push(head)) closed_chains_.push_back(head);
  }
  // The coordinator's share while workers chew: chains a closed
  // mailbox refused, then its own untagged tasks.
  for (Task* head : closed_chains_) RunChainFrom(head, nullptr);
  for (std::size_t k = begin; k < end; ++k) {
    Task* t = plan_[k];
    if (t->exec_node == kCoord && !t->cancelled) RunTaskBody(t);
  }
  epoch_gate_.Wait();
  // Replay deferred schedules in plan-slot order — identical sequence
  // assignment to the serial oracle, which ran each callback (and its
  // schedules) at exactly this slot position.
  for (std::size_t k = begin; k < end; ++k) {
    Task* t = plan_[k];
    t->parallel_group = false;
    for (DeferredSchedule& d : t->deferred) {
      Schedule(d.node, d.when, std::move(d.fn), d.cls);
    }
    t->deferred.clear();
  }
}

void ThreadRuntime::ReleaseWave() {
  for (Task* t : plan_) {
    if (t->fn != nullptr) {
      // Repeat-series task: owned by its wrapper for the series' life;
      // clear only the wave-transient state.
      t->done = nullptr;
      t->weight = 1;
      t->parallel_group = false;
      t->cancelled = false;
      t->run_next = nullptr;
      t->chain_next = nullptr;
      t->epoch_gate = nullptr;
    } else {
      pool_->Release(t);
    }
  }
  plan_.clear();
}

void ThreadRuntime::WorkerLoop(std::uint32_t index) {
  Worker& w = *workers_[index];
  while (Task* task = w.box.Pop()) {
    RunChainFrom(task, &w);
  }
  // Mailbox closed and drained: rendezvous so no worker exits while a
  // sibling still holds undrained work.
  barrier_.ArriveAndWait();
}

std::uint64_t ThreadRuntime::RunUntil(SimTime horizon) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  if (options_.dispatch == DispatchMode::kEpoch && !stopped_) {
    std::uint64_t ran = RunEpochs(horizon, ~std::uint64_t{0}, true);
    // Nothing left at or before the horizon; advance Now() to it,
    // exactly as the sim backend does.
    clock_->RunUntil(horizon);
    return ran;
  }
  return clock_->RunUntil(horizon);
}

std::uint64_t ThreadRuntime::Run(std::uint64_t max_events) {
  RunScope scope(&wall_seconds_, &sim_seconds_, clock_);
  if (options_.dispatch == DispatchMode::kEpoch && !stopped_) {
    return RunEpochs(SimTime::Zero(), max_events, false);
  }
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
  if (metrics_ == nullptr) return;
  // Wall-clock-derived values go to kProfile metrics only: they are
  // nondeterministic by nature and must never leak into deterministic
  // snapshots (obs::SnapshotOptions excludes kProfile by default).
  // That covers the epoch-shape numbers too: keeping the whole family
  // kProfile keeps threads-backend snapshots bit-identical to the sim
  // oracle's.
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
  if (sim_seconds_ > 0) {
    metrics_->GetProfile("runtime.wall_sim_ratio")
        .Record(wall_seconds_ / sim_seconds_);
  }
  // Coordinator dispatch-queue high-water mark (plan slots), the
  // wave-size signal mailbox_max_depth alone can't give.
  metrics_->GetProfile("runtime.dispatch_queue_max_depth")
      .Record(static_cast<double>(plan_high_water_));
  if (options_.dispatch == DispatchMode::kEpoch) {
    metrics_->GetProfile("runtime.epoch_count")
        .Record(static_cast<double>(epochs_));
    metrics_->GetProfile("runtime.epoch_width_max")
        .Record(static_cast<double>(epoch_width_max_));
  }
}

}  // namespace tdr::runtime
