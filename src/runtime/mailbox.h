#ifndef TDR_RUNTIME_MAILBOX_H_
#define TDR_RUNTIME_MAILBOX_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/callback.h"
#include "sim/event_id.h"
#include "util/sim_time.h"

namespace tdr::runtime {

class Gate;
class EpochGate;

/// How a scheduled event may execute relative to its epoch-mates.
/// kExclusive events may touch shared cluster state (the executor, the
/// message pool, metric cells, the event core), so the epoch planner
/// serializes them in exact (time, seq) order. kParallel is a promise
/// made at the call site: the callback touches only its node's private
/// state, and any events it schedules are deferred and replayed in
/// slot order — only then may same-timestamp events on distinct nodes
/// genuinely overlap.
enum class ExecClass : std::uint8_t {
  kExclusive = 0,
  kParallel = 1,
};

/// A scheduling request a parallel-class task issued while its group
/// was in flight. Replayed by the coordinator in plan-slot order at
/// the group barrier, so sequence numbers come out exactly as the
/// serial oracle would have assigned them.
struct DeferredSchedule {
  std::uint32_t node = 0;
  SimTime when;  // absolute virtual time
  ExecClass cls = ExecClass::kExclusive;
  sim::Callback fn;
};

/// One unit of work handed to a worker thread.
///
/// Two ownership modes coexist:
///  * `fn` set — the callback is BORROWED: it lives in the scheduling
///    wrapper (repeat series), or on a test's stack, and must stay
///    valid until the task has executed.
///  * `fn` null — the callback is `owned`: epoch dispatch moves the
///    scheduled callback into the pooled task at schedule time, so
///    firing never chases a pointer into the event slab (whose slots
///    are recycled the moment the wrapper pops).
///
/// The epoch fields below `weight` link tasks into per-worker chains
/// (`run_next`), chains into baton sequences (`chain_next`), and hang
/// the segment barrier plus the deferred-schedule buffer off the
/// right places. They are owned by the coordinator's plan; mailbox
/// mutexes provide the happens-before edges that publish them to
/// workers.
struct Task {
  Task() = default;
  /// Test convenience: a borrowed-callback task (the pre-epoch shape).
  explicit Task(sim::Callback* f) : fn(f) {}

  sim::Callback* fn = nullptr;  // borrowed callback (see above)
  Gate* done = nullptr;         // turn-based completion signal
  Task* next = nullptr;         // intrusive mailbox link
  sim::Callback owned;          // owned callback (epoch one-shots)
  /// Queue-depth contribution of a Push: the chain length when the
  /// task heads a `run_next` chain, else 1.
  std::uint32_t weight = 1;
  std::uint32_t node = 0xffffffffu;  // node affinity tag (kAnyNode)
  ExecClass cls = ExecClass::kExclusive;
  /// Set while the task executes inside a parallel group: Schedule*
  /// calls from the callback are deferred into `deferred` instead of
  /// touching the shared event core.
  bool parallel_group = false;
  /// Cancelled after collection (ThreadRuntime::Cancel found it in the
  /// current plan): the executor skips the body but keeps the slot.
  bool cancelled = false;
  sim::EventId origin = sim::kInvalidEventId;  // wrapper's event id
  /// Resolved executor lane (worker index or kCoord), assigned by the
  /// planner; a finishing worker reads its successor chain head's lane
  /// to know which mailbox gets the baton.
  std::uint32_t exec_node = 0;
  /// This task's slot in the wave plan — the floor for Cancel's sweep
  /// over not-yet-executed plan entries.
  std::uint32_t plan_index = 0;
  Task* run_next = nullptr;    // next task in this worker chain
  Task* chain_next = nullptr;  // successor chain head (serial baton)
  EpochGate* epoch_gate = nullptr;  // chain tail: arrive here when done
  std::vector<DeferredSchedule> deferred;  // parallel tasks only
};

/// Single-shot, reusable completion gate (mutex + condvar). The
/// coordinator Reset()s it, hands it to a worker inside a Task, and
/// Wait()s; the worker Signal()s after running the task. The mutex
/// hand-off is also the happens-before edge that lets all of the
/// cluster's single-threaded state (stores, lock tables, the event
/// core itself) migrate between threads without atomics.
class Gate {
 public:
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    signaled_ = false;
  }

  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      signaled_ = true;
    }
    cv_.notify_one();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return signaled_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

/// Counted completion barrier for epoch segments: the coordinator
/// Reset(n)s it to the number of completions the segment owes (one
/// per chain), workers Arrive() as they finish, and the
/// coordinator Wait()s for zero. One EpochGate round-trip per segment
/// replaces the per-event Gate hand-shake of turn-based dispatch.
class EpochGate {
 public:
  void Reset(std::size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    remaining_ = count;
  }

  void Arrive(std::size_t n = 1) {
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      remaining_ -= n;
      done = remaining_ == 0;
    }
    if (done) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_ = 0;
};

/// All-parties rendezvous used as the shared stop/drain barrier: every
/// worker drains its mailbox, arrives, and no worker exits until all
/// have drained. Reusable across generations.
class StopBarrier {
 public:
  explicit StopBarrier(std::size_t parties) : parties_(parties) {}

  StopBarrier(const StopBarrier&) = delete;
  StopBarrier& operator=(const StopBarrier&) = delete;

  void ArriveAndWait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// MPSC mailbox: any thread may Push, one worker Pop()s. Mutex+condvar
/// by design — dispatch keeps at most a handful of chains in flight per
/// mailbox, so a lock-free queue would buy nothing (the stress suite
/// still hammers the multi-producer path).
///
/// Close() wakes the consumer; Pop() then drains whatever is queued
/// before returning nullptr, so no accepted task is ever lost — the
/// drain half of the stop/drain barrier.
class Mailbox {
 public:
  Mailbox() = default;

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `task` as one queue node — a single task, or the head of
  /// a `run_next`-linked chain whose length is in `task->weight`.
  /// False (nothing queued) if the mailbox is closed.
  bool Push(Task* task);

  /// Blocks until a task is available or the mailbox is closed AND
  /// drained; nullptr means "closed, nothing left".
  Task* Pop();

  /// Rejects future pushes and wakes the consumer.
  void Close();

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return depth_;
  }
  /// High-water mark of queued weight (the mailbox-depth metric).
  std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }
  std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Task* head_ = nullptr;
  Task* tail_ = nullptr;
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_MAILBOX_H_
