#ifndef TDR_RUNTIME_MAILBOX_H_
#define TDR_RUNTIME_MAILBOX_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "sim/callback.h"

namespace tdr::runtime {

class Gate;

/// One unit of work handed to a worker thread: a BORROWED callback
/// (the fired event's, lent by ThreadRuntime until the gate fires, or
/// a test's own), the gate the worker signals after running it, and
/// the intrusive mailbox link.
struct Task {
  Task() = default;
  explicit Task(sim::Callback* f) : fn(f) {}

  sim::Callback* fn = nullptr;
  Gate* done = nullptr;
  Task* next = nullptr;
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
/// by design — dispatch keeps at most one task in flight per mailbox,
/// so a lock-free queue would buy nothing (the stress suite still
/// hammers the multi-producer path).
///
/// Close() wakes the consumer; Pop() then drains whatever is queued
/// before returning nullptr, so no accepted task is ever lost — the
/// drain half of the stop/drain barrier.
class Mailbox {
 public:
  Mailbox() = default;

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `task`. False (nothing queued) if the mailbox is closed.
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
  /// High-water mark of queued tasks.
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
