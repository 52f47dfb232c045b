#ifndef TDR_SIM_SIMULATOR_H_
#define TDR_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/callback.h"
#include "sim/event_heap.h"
#include "sim/event_id.h"
#include "util/sim_time.h"

namespace tdr::sim {

/// Deterministic discrete-event simulator.
///
/// Events are (time, sequence, callback) triples executed in strictly
/// nondecreasing time order; ties break by scheduling order (sequence),
/// which makes runs reproducible across platforms. All of the replication
/// machinery in this library — transaction actions, message deliveries,
/// disconnect/reconnect cycles — runs as events on one Simulator.
///
/// The simulator is single-threaded by design: the paper's model counts
/// logical conflicts, and a deterministic single-threaded event loop
/// reproduces those exactly while staying debuggable. Parallelism lives
/// one level up (sweep_runner.h): independent configurations each own a
/// Simulator and run concurrently.
///
/// Internals: callbacks live in a slab (`slots_`) recycled through a
/// free-list, and firing order comes from a 4-ary heap whose 24-byte
/// entries carry the (time, seq) key inline — sift comparisons never
/// touch the slab. EventIds are generation-tagged slot handles;
/// cancellation just bumps the slot's generation (O(1)) and the stale
/// heap entry is skipped at pop time, with periodic compaction when
/// stale entries outnumber live ones. Callbacks use a small-buffer-
/// optimized wrapper (callback.h), so scheduling, cancelling and firing
/// allocate nothing in steady state. Repeat series are intrusive: the
/// series' own slot is re-armed after each tick with a fresh sequence
/// number, so periodic timers never touch a side table.
///
/// The class is `final` and implements runtime::Runtime: components
/// typed against the interface pay one virtual dispatch per schedule,
/// while everything holding a concrete Simulator (the tests, the sweep
/// runner, the thread backend's clock core) devirtualizes back to the
/// same inline fast paths as before.
class Simulator final : public runtime::Runtime {
 public:
  using Callback = ::tdr::sim::Callback;

  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at zero.
  SimTime Now() const override { return now_; }

  /// Schedules `fn` to run at absolute time `when`. Scheduling in the
  /// past is an error and the event is clamped to Now() (and counted in
  /// `clamped_schedules()` so tests can assert it never happens).
  EventId ScheduleAt(SimTime when, Callback&& fn) override {
    if (when < now_) {
      ++clamped_schedules_;
      when = now_;
    }
    return AddEvent(when, SimTime::Zero(), std::move(fn));
  }

  /// Schedules `fn` to run `delay` after Now(). Negative delays clamp to
  /// zero and count in `clamped_schedules()`, same as past-time
  /// ScheduleAt.
  EventId ScheduleAfter(SimTime delay, Callback&& fn) override {
    if (delay < SimTime::Zero()) {
      ++clamped_schedules_;
      delay = SimTime::Zero();
    }
    return AddEvent(now_ + delay, SimTime::Zero(), std::move(fn));
  }

  /// Cancels a pending event. Returns true if the event existed and had
  /// not yet fired.
  bool Cancel(EventId id) override {
    std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || slot >= slots_.size()) return false;
    Event& e = slots_[slot];
    if (e.gen != gen) return false;  // already fired, cancelled, or recycled
    // The generation bump strands the event's heap entry; it is skipped
    // when it reaches the top, or swept out by Compact() once stale
    // entries outnumber live ones.
    ReleaseSlot(slot);
    --pending_;
    if (heap_.size() > 2 * pending_ + kCompactSlack) Compact();
    return true;
  }

  /// Schedules `fn` every `interval`, starting at Now() + interval, until
  /// the returned id is cancelled. `fn` runs before the next occurrence
  /// is scheduled, so it may Cancel the series from inside itself.
  EventId RepeatEvery(SimTime interval, Callback&& fn) override;

  /// Runs events until the queue is empty or `horizon` is passed. Events
  /// scheduled exactly at the horizon DO run. Returns the number of
  /// events executed.
  std::uint64_t RunUntil(SimTime horizon) override;

  /// Runs until the queue is empty. A runaway self-rescheduling workload
  /// would never terminate, so `max_events` (default ~4e9) bounds it.
  std::uint64_t Run(std::uint64_t max_events = (1ULL << 32)) override;

  /// Executes exactly one event if any is pending. Returns true if an
  /// event ran.
  bool Step();

  /// Writes the next live event's firing time to `when` and returns
  /// true; false when idle. The thread backend's coordinator uses this
  /// to pace dispatch against the wall clock without popping anything.
  bool PeekNextTime(SimTime* when) {
    SkipStale();
    if (heap_.empty()) return false;
    *when = heap_.Top().when;
    return true;
  }

  /// True if no events are pending (cancelled events are ignored).
  bool Idle() const override { return pending_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t PendingEvents() const override { return pending_; }

  std::uint64_t executed_events() const { return executed_events_; }
  std::uint64_t clamped_schedules() const { return clamped_schedules_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::size_t kCompactSlack = 64;

  /// Slab entry: everything an event needs at fire time. The ordering
  /// key lives in the heap entry, not here.
  struct Event {
    Callback fn;
    SimTime interval;                // nonzero marks a repeat series
    std::uint32_t gen = 1;           // bumped when the slot is recycled
    std::uint32_t next_free = kNilSlot;
  };

  /// 24-byte heap entry: key plus the generation-tagged slot handle.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;               // tie breaker: global schedule order
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct EntryLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      // Sift comparisons resolve essentially randomly, so a two-step
      // compare mispredicts constantly. Folding (when, seq) into one
      // 128-bit key keeps the whole comparison branchless (sub/sbb);
      // the sign-bit flip maps signed micros onto uint64 preserving
      // order.
#ifdef __SIZEOF_INT128__
      return Key(a) < Key(b);
#else
      return (a.when < b.when) |
             ((a.when == b.when) & (a.seq < b.seq));
#endif
    }
#ifdef __SIZEOF_INT128__
    static unsigned __int128 Key(const HeapEntry& e) {
      std::uint64_t biased =
          static_cast<std::uint64_t>(e.when.micros()) ^ (1ULL << 63);
      return (static_cast<unsigned __int128>(biased) << 64) | e.seq;
    }
#endif
  };

  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventId AddEvent(SimTime when, SimTime interval, Callback&& fn) {
    std::uint32_t slot = AcquireSlot();
    Event& e = slots_[slot];
    e.interval = interval;
    e.fn = std::move(fn);
    ++pending_;
    heap_.Push(HeapEntry{when, next_seq_++, slot, e.gen});
    return MakeId(slot, e.gen);
  }

  std::uint32_t AcquireSlot() {
    if (free_head_ != kNilSlot) {
      std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void ReleaseSlot(std::uint32_t slot) {
    Event& e = slots_[slot];
    e.fn = nullptr;
    // The generation bump is what invalidates the old EventId; skip 0 so
    // MakeId never produces kInvalidEventId.
    if (++e.gen == 0) e.gen = 1;
    e.next_free = free_head_;
    free_head_ = slot;
  }

  /// Discards generation-stale heap tops so Top(), if any, is live.
  void SkipStale() {
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.Top();
      if (slots_[top.slot].gen == top.gen) break;
      heap_.PopTop();
    }
  }

  void Compact();
  /// Pops and executes the top event (top must exist and be live).
  void FireTop();

  SimTime now_;
  std::uint64_t next_seq_ = 1;  // 0 is reserved (kInvalidEventId legacy)
  std::vector<Event> slots_;
  std::uint32_t free_head_ = kNilSlot;
  EventHeap<HeapEntry, EntryLess> heap_;
  std::size_t pending_ = 0;
  std::uint64_t executed_events_ = 0;
  std::uint64_t clamped_schedules_ = 0;
};

}  // namespace tdr::sim

#endif  // TDR_SIM_SIMULATOR_H_
