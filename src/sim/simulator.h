#ifndef TDR_SIM_SIMULATOR_H_
#define TDR_SIM_SIMULATOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_heap.h"
#include "util/sim_time.h"

namespace tdr::sim {

/// Identifies a scheduled event so it can be cancelled. Ids are never
/// reused within one Simulator.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Node tag of an event that belongs to no particular node: plain
/// schedules and repeat series carry it.
inline constexpr std::uint32_t kAnyNode = 0xffffffffu;

/// Runs fired events on the simulator's behalf (the thread backend,
/// runtime/thread_runtime.h). Attached with Simulator::set_dispatcher,
/// it is called where the simulator would call the event's callback,
/// with the node tag it was scheduled under, and must have run `fn`
/// once by the time it returns. Tags never affect the fire order.
class Dispatcher {
 public:
  virtual void Dispatch(std::uint32_t node, Callback& fn) = 0;

 protected:
  ~Dispatcher() = default;
};

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
/// Internals (DESIGN.md §8.2): callbacks live in a slab (`slots_`)
/// recycled through a free-list. Pending events sit in a hashed timing
/// wheel — kBuckets buckets of 2^kBucketBits µs, each a circular list
/// through the slab kept in (time, seq) order, with a bitmap of the
/// non-empty ones — or, when they are due a full span or more ahead, in
/// a 4-ary overflow heap (event_heap.h). The next event is the earlier,
/// under one (time, seq) key, of the first entry of the first non-empty
/// bucket at or after Now()'s and the heap's top, so the fire order is
/// the one a single priority queue would give. EventIds are
/// generation-tagged slot handles. Each slot also carries the node tag
/// its event was scheduled under, which only a Dispatcher reads; it
/// never orders anything. Cancelling a wheel entry unlinks it;
/// cancelling a heap entry bumps the slot's generation and the stale
/// entry is skipped at pop time, with periodic compaction when stale
/// entries outnumber live ones. Callbacks use a small-buffer-optimized
/// wrapper (callback.h), so scheduling, cancelling and firing allocate
/// nothing in steady state. Repeat series are intrusive: the series' own
/// slot is re-armed after each tick with a fresh sequence number, so
/// periodic timers never touch a side table.
///
/// Every component schedules on this class directly, so no schedule
/// call is virtual; the one virtual call is the Dispatcher's, made per
/// fired event only when one is attached.
class Simulator {
 public:
  using Callback = ::tdr::sim::Callback;

  Simulator() { heads_.fill(kNilSlot); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at zero.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when`. Scheduling in the
  /// past is an error and the event is clamped to Now() (and counted in
  /// `clamped_schedules()` so tests can assert it never happens).
  EventId ScheduleAt(SimTime when, Callback&& fn) {
    return ScheduleAtNode(kAnyNode, when, std::move(fn));
  }

  /// Schedules `fn` to run `delay` after Now(). Negative delays clamp to
  /// zero and count in `clamped_schedules()`, same as past-time
  /// ScheduleAt.
  EventId ScheduleAfter(SimTime delay, Callback&& fn) {
    return ScheduleAfterNode(kAnyNode, delay, std::move(fn));
  }

  /// The same, tagged with the node whose state `fn` touches: an
  /// attached Dispatcher runs it on that node's worker. The tag never
  /// changes when the event fires.
  EventId ScheduleAtNode(std::uint32_t node, SimTime when, Callback&& fn) {
    if (when < now_) {
      ++clamped_schedules_;
      when = now_;
    }
    return AddEvent(when, SimTime::Zero(), node, std::move(fn));
  }
  EventId ScheduleAfterNode(std::uint32_t node, SimTime delay,
                            Callback&& fn) {
    if (delay < SimTime::Zero()) {
      ++clamped_schedules_;
      delay = SimTime::Zero();
    }
    return AddEvent(now_ + delay, SimTime::Zero(), node, std::move(fn));
  }

  /// Cancels a pending event. Returns true if the event existed and had
  /// not yet fired.
  bool Cancel(EventId id) {
    std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || slot >= slots_.size()) return false;
    Event& e = slots_[slot];
    if (e.gen != gen) return false;  // already fired, cancelled, or recycled
    // A wheel entry leaves its bucket now. A heap entry is stranded by
    // the generation bump: it is skipped when it reaches the top, or
    // swept out by Compact() once the heap holds more than 2·pending + 64
    // entries. Only the heap can hold stale entries, so only its size
    // counts.
    if (InWheel(e)) Unlink(slot);
    ReleaseSlot(slot);
    --pending_;
    if (heap_.size() > 2 * pending_ + kCompactSlack) Compact();
    return true;
  }

  /// Schedules `fn` every `interval`, starting at Now() + interval, until
  /// the returned id is cancelled. `fn` runs before the next occurrence
  /// is scheduled, so it may Cancel the series from inside itself. An
  /// interval that is not positive aborts the program, in every build.
  /// A series carries kAnyNode.
  EventId RepeatEvery(SimTime interval, Callback&& fn);

  /// Runs events until the queue is empty or `horizon` is passed. Events
  /// scheduled exactly at the horizon DO run. Returns the number of
  /// events executed.
  std::uint64_t RunUntil(SimTime horizon);

  /// Runs until the queue is empty. A runaway self-rescheduling workload
  /// would never terminate, so `max_events` (default ~4e9) bounds it.
  std::uint64_t Run(std::uint64_t max_events = (1ULL << 32));

  /// Executes exactly one event if any is pending. Returns true if an
  /// event ran.
  bool Step();

  /// True if no events are pending (cancelled events are ignored).
  bool Idle() const { return pending_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t PendingEvents() const { return pending_; }

  std::uint64_t executed_events() const { return executed_events_; }
  std::uint64_t clamped_schedules() const { return clamped_schedules_; }

  /// Attaches the hook that runs each fired event (null: run it here).
  /// Not owned.
  void set_dispatcher(Dispatcher* dispatcher) { dispatcher_ = dispatcher; }

  /// The wheel's geometry: kBuckets buckets of 2^kBucketBits µs, a span
  /// of 65.536 ms. It holds every constant delay the schemes schedule
  /// (0, 250 µs, 500 µs, 5 ms, 50 ms); an event due kBuckets or more
  /// buckets past Now()'s goes to the overflow heap.
  static constexpr int kBucketBits = 6;
  static constexpr std::uint32_t kBuckets = 1024;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::size_t kCompactSlack = 64;
  static constexpr std::uint32_t kBitmapWords = kBuckets / 64;
  /// An insert walks back past at most this many later entries of its
  /// bucket; an event that would go further goes to the heap, so a
  /// burst of out-of-order times in one bucket costs O(log n) each
  /// rather than O(n).
  static constexpr int kMaxBucketWalk = 8;
  static_assert((kBuckets & (kBuckets - 1)) == 0 && kBuckets % 64 == 0,
                "the bucket index masks a tick, and the bitmap is words");

  /// Slab entry: everything an event needs at fire time. While the event
  /// is in a wheel bucket, `next` and `prev` link the bucket's circular
  /// list; otherwise `prev` is kNilSlot (in the heap, firing, or free)
  /// and a free slot's `next` chains the free list.
  struct Event {
    SimTime when;                    // the pending occurrence's key
    std::uint64_t seq = 0;
    std::uint32_t next = kNilSlot;
    std::uint32_t prev = kNilSlot;
    std::uint32_t gen = 1;           // bumped when the slot is recycled
    std::uint32_t node = kAnyNode;   // the Dispatcher's tag; never orders
    SimTime interval;                // nonzero marks a repeat series
    Callback fn;
  };
  static_assert(sizeof(Event) == 128, "the tag sits in padding after gen");

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

  /// The earliest pending event: the wheel's first entry or the heap's
  /// top.
  struct Next {
    std::uint32_t slot;
    SimTime when;
  };

  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// The absolute bucket number of `t`; Now() never goes below zero, and
  /// no pending event is due before Now().
  static std::uint64_t Tick(SimTime t) {
    return static_cast<std::uint64_t>(t.micros()) >> kBucketBits;
  }
  static std::uint32_t BucketOf(SimTime t) {
    return static_cast<std::uint32_t>(Tick(t) & (kBuckets - 1));
  }
  static bool InWheel(const Event& e) { return e.prev != kNilSlot; }

  EventId AddEvent(SimTime when, SimTime interval, std::uint32_t node,
                   Callback&& fn) {
    std::uint32_t slot = AcquireSlot();
    Event& e = slots_[slot];
    e.interval = interval;
    e.node = node;
    e.fn = std::move(fn);
    ++pending_;
    Enqueue(slot, when);
    return MakeId(slot, e.gen);
  }

  /// Queues the slot's next occurrence at `when` (not before Now()) under
  /// a fresh sequence number.
  void Enqueue(std::uint32_t slot, SimTime when) {
    Event& e = slots_[slot];
    e.when = when;
    e.seq = next_seq_++;
    // Every wheel entry is due less than a span past Now()'s bucket, so
    // no two ticks a span apart share a bucket, and a scan from Now()'s
    // bucket meets the buckets in time order.
    if (Tick(when) - Tick(now_) >= kBuckets || !Link(slot)) {
      heap_.Push(HeapEntry{when, e.seq, slot, e.gen});
    }
  }

  /// Links a slot into its bucket behind every entry due no later than
  /// it: it carries the largest sequence number yet, so equal times keep
  /// schedule order. Returns false, linking nothing, when that would mean
  /// walking past more than kMaxBucketWalk later entries.
  bool Link(std::uint32_t slot) {
    Event& e = slots_[slot];
    const std::uint32_t bucket = BucketOf(e.when);
    std::uint32_t& head = heads_[bucket];
    if (head == kNilSlot) {
      head = slot;
      e.next = e.prev = slot;
      bitmap_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
      return true;
    }
    const std::uint32_t tail = slots_[head].prev;
    std::uint32_t after = tail;
    for (int walked = 0; slots_[after].when > e.when; ++walked) {
      if (walked == kMaxBucketWalk) return false;
      if (after == head) {  // due before the whole bucket: the new head
        after = tail;
        head = slot;
        break;
      }
      after = slots_[after].prev;
    }
    const std::uint32_t before = slots_[after].next;
    e.prev = after;
    e.next = before;
    slots_[after].next = slot;
    slots_[before].prev = slot;
    return true;
  }

  /// Takes a linked slot out of its bucket.
  void Unlink(std::uint32_t slot) {
    Event& e = slots_[slot];
    const std::uint32_t bucket = BucketOf(e.when);
    if (e.next == slot) {
      heads_[bucket] = kNilSlot;
      bitmap_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
    } else {
      slots_[e.prev].next = e.next;
      slots_[e.next].prev = e.prev;
      if (heads_[bucket] == slot) heads_[bucket] = e.next;
    }
    e.prev = kNilSlot;
  }

  std::uint32_t AcquireSlot() {
    if (free_head_ != kNilSlot) {
      std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next;
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
    e.next = free_head_;
    free_head_ = slot;
  }

  /// The first non-empty bucket at or after Now()'s, wrapping once;
  /// kBuckets when the wheel is empty.
  std::uint32_t FirstBucket() const;
  /// Finds the earliest pending event; false when idle.
  bool PeekNext(Next* next);
  /// Takes `next` (just found by PeekNext) off the queue and executes it.
  void Fire(const Next& next);
  /// Runs a fired event's callback, through the Dispatcher if attached.
  void Invoke(std::uint32_t node, Callback& fn) {
    if (dispatcher_ != nullptr) {
      dispatcher_->Dispatch(node, fn);
    } else {
      fn();
    }
  }
  void Compact();

  SimTime now_;
  std::uint64_t next_seq_ = 1;  // 0 is reserved (kInvalidEventId legacy)
  std::vector<Event> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::array<std::uint32_t, kBuckets> heads_;  // kNilSlot: empty bucket
  std::array<std::uint64_t, kBitmapWords> bitmap_{};  // non-empty buckets
  EventHeap<HeapEntry, EntryLess> heap_;
  std::size_t pending_ = 0;
  std::uint64_t executed_events_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  Dispatcher* dispatcher_ = nullptr;
};

}  // namespace tdr::sim

#endif  // TDR_SIM_SIMULATOR_H_
