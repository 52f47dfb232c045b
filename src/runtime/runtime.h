#ifndef TDR_RUNTIME_RUNTIME_H_
#define TDR_RUNTIME_RUNTIME_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/callback.h"
#include "sim/event_id.h"
#include "util/sim_time.h"

namespace tdr::runtime {

/// Node affinity wildcard: the event belongs to no particular node and
/// may run wherever the backend finds convenient (the sim ignores
/// affinity entirely; the thread backend runs kAnyNode events inline on
/// the coordinator).
inline constexpr std::uint32_t kAnyNode = 0xffffffffu;

/// The execution surface shared by the deterministic simulator and the
/// real-threads backend.
///
/// Everything above the event core — Network, Executor, BatchShipper,
/// ReplicaApplier, workload arrivals, the fault layer — schedules
/// against this interface instead of sim::Simulator directly. Both
/// backends run events one at a time in the same virtual (time, seq)
/// order, so a seeded scenario produces the same committed history and
/// the same final store digests on either one; the thread backend
/// additionally executes each node's events on that node's own OS
/// thread (see runtime/thread_runtime.h for the dispatch protocol).
///
/// The `*Node` overloads tag an event with the node whose state it
/// touches. Tags never affect ordering — they only tell the thread
/// backend which worker runs the callback — so components may tag
/// conservatively (or not at all) without changing any result.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current virtual time. Starts at zero.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` at absolute virtual time `when` (clamped to Now()
  /// if in the past, as sim::Simulator does).
  virtual sim::EventId ScheduleAt(SimTime when, sim::Callback&& fn) = 0;

  /// Schedules `fn` to run `delay` after Now() (negative delays clamp
  /// to zero).
  virtual sim::EventId ScheduleAfter(SimTime delay, sim::Callback&& fn) = 0;

  /// Schedules `fn` every `interval` until the returned id is
  /// cancelled.
  virtual sim::EventId RepeatEvery(SimTime interval, sim::Callback&& fn) = 0;

  /// Cancels a pending event; true if it existed and had not fired.
  virtual bool Cancel(sim::EventId id) = 0;

  /// Runs events up to and including `horizon`, then advances Now() to
  /// the horizon. Returns the number of events executed.
  virtual std::uint64_t RunUntil(SimTime horizon) = 0;

  /// Runs until the queue is empty (bounded by `max_events`).
  virtual std::uint64_t Run(std::uint64_t max_events = (1ULL << 32)) = 0;

  /// True if no events are pending.
  virtual bool Idle() const = 0;

  /// Number of pending (non-cancelled) events.
  virtual std::size_t PendingEvents() const = 0;

  /// Affinity-tagged variants: `node` is the node whose state `fn`
  /// mutates. The base implementations drop the tag — exactly what the
  /// single-threaded simulator wants.
  virtual sim::EventId ScheduleAtNode(std::uint32_t node, SimTime when,
                                      sim::Callback&& fn) {
    (void)node;
    return ScheduleAt(when, std::move(fn));
  }
  virtual sim::EventId ScheduleAfterNode(std::uint32_t node, SimTime delay,
                                         sim::Callback&& fn) {
    (void)node;
    return ScheduleAfter(delay, std::move(fn));
  }

 protected:
  Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
};

}  // namespace tdr::runtime

#endif  // TDR_RUNTIME_RUNTIME_H_
