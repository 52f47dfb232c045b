#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace tdr::sim {

EventId Simulator::RepeatEvery(SimTime interval, Callback&& fn) {
  assert(interval > SimTime::Zero());
  // The previous engine allocated a separate series handle from the
  // sequence counter before scheduling the first tick. Consume one here
  // too so the sequence stream — and with it every tie-break order and
  // seeded simulation outcome — is unchanged.
  ++next_seq_;
  return AddEvent(now_ + interval, interval, std::move(fn));
}

void Simulator::Compact() {
  heap_.Compact([this](const HeapEntry& entry) {
    return slots_[entry.slot].gen == entry.gen;
  });
}

void Simulator::FireTop() {
  const HeapEntry top = heap_.Top();
  heap_.PopTop();
  now_ = top.when;
  ++executed_events_;
  Event& e = slots_[top.slot];
  if (e.interval == SimTime::Zero()) {
    // One-shot: release the slot before invoking so Cancel(own id)
    // inside the callback reports "already fired" and the slot is
    // immediately reusable by whatever the callback schedules.
    Callback fn = std::move(e.fn);
    ReleaseSlot(top.slot);
    --pending_;
    fn();
  } else {
    // Repeat series: the callback runs with the slot held but off-heap,
    // then the series re-arms unless the callback cancelled it (which
    // bumps the generation and drops it from `pending_`). The callback
    // is moved out during the call so a reentrant Cancel never destroys
    // a running function object.
    Callback fn = std::move(e.fn);
    fn();
    Event& e2 = slots_[top.slot];  // the slab may have grown and moved
    if (e2.gen == top.gen) {
      // Fresh sequence number per occurrence, exactly as if this tick
      // had scheduled its successor — keeps tie-break order identical
      // to an explicit reschedule.
      e2.fn = std::move(fn);
      heap_.Push(HeapEntry{now_ + e2.interval, next_seq_++, top.slot,
                           top.gen});
    }
  }
}

std::uint64_t Simulator::RunUntil(SimTime horizon) {
  std::uint64_t ran = 0;
  while (true) {
    SkipStale();
    if (heap_.empty() || heap_.Top().when > horizon) break;
    FireTop();
    ++ran;
  }
  if (now_ < horizon) now_ = horizon;
  return ran;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events) {
    SkipStale();
    if (heap_.empty()) break;
    FireTop();
    ++ran;
  }
  return ran;
}

bool Simulator::Step() {
  SkipStale();
  if (heap_.empty()) return false;
  FireTop();
  return true;
}

}  // namespace tdr::sim
