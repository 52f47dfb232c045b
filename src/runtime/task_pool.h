#ifndef TDR_RUNTIME_TASK_POOL_H_
#define TDR_RUNTIME_TASK_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "runtime/mailbox.h"

namespace tdr::runtime {

/// Free list of recycled Task wrappers — the dispatch plane's half of
/// the zero-allocation story (net::MessagePool is the data plane's,
/// and the simulator's event slab the event core's).
///
/// ThreadRuntime acquires one pooled task per scheduled event at
/// *schedule* time and moves the callback into it, so the wrapper
/// lambda registered with the event core captures only two pointers
/// and stays inside sim::Callback's inline buffer: scheduling through
/// the thread backend no longer heap-allocates per event. Tasks return
/// to the pool when their event has run or been cancelled.
///
/// The slab is a deque so records have stable addresses — live Task*
/// survive growth (unlike MessagePool, which hands out slot indices
/// for exactly this reason). `birth_capacity` tasks are materialized
/// up front; exhaustion grows the slab (counted in `grow_events`), and
/// steady state — pool high-water below capacity — allocates nothing,
/// which `runtime_task_pool_test` pins with the alloc-audit harness.
///
/// Single-threaded by design: Acquire/Release happen on the
/// coordinator, or on a worker while the coordinator waits on its
/// completion gate (one event is in flight at a time), so the mailbox
/// and gate mutexes already order every access.
class TaskPool {
 public:
  explicit TaskPool(std::size_t birth_capacity) { Grow(birth_capacity); }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// A reset task (callback slots empty, links null). Grows the slab
  /// when the free list is dry.
  Task* Acquire() {
    if (free_ == nullptr) {
      ++grow_events_;
      Grow(slab_.empty() ? 1 : slab_.size());  // double, like vector
    }
    Task* t = free_;
    free_ = t->next;
    t->next = nullptr;
    ++in_use_;
    if (in_use_ > max_in_use_) max_in_use_ = in_use_;
    return t;
  }

  /// Destroys the owned callback (running RAII releases of anything it
  /// captured), clears the links, and free-lists the task.
  void Release(Task* t) {
    assert(in_use_ > 0 && "TaskPool::Release without matching Acquire");
    t->fn = nullptr;
    t->done = nullptr;
    t->owned = nullptr;
    t->node = 0xffffffffu;
    t->next = free_;
    free_ = t;
    --in_use_;
  }

  std::size_t capacity() const { return slab_.size(); }
  std::size_t in_use() const { return in_use_; }
  std::size_t max_in_use() const { return max_in_use_; }
  /// Times Acquire() found the free list empty and grew the slab.
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  void Grow(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      slab_.emplace_back();
      Task* t = &slab_.back();
      t->next = free_;
      free_ = t;
    }
  }

  std::deque<Task> slab_;
  Task* free_ = nullptr;
  std::size_t in_use_ = 0;
  std::size_t max_in_use_ = 0;
  std::uint64_t grow_events_ = 0;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_TASK_POOL_H_
