#include "sim/simulator.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tdr::sim {

namespace {

[[noreturn]] void FailInterval(SimTime interval) {
  std::fprintf(stderr,
               "Simulator::RepeatEvery: interval %lld us is not positive\n",
               static_cast<long long>(interval.micros()));
  std::abort();
}

}  // namespace

EventId Simulator::RepeatEvery(SimTime interval, Callback&& fn) {
  // A zero interval would fire once and leave a dead id; a negative one
  // would re-arm before Now() and run the clock backwards.
  if (interval <= SimTime::Zero()) FailInterval(interval);
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

std::uint32_t Simulator::FirstBucket() const {
  const std::uint32_t from = BucketOf(now_);
  std::uint32_t word = from / 64;
  std::uint64_t bits = bitmap_[word] & (~std::uint64_t{0} << (from % 64));
  for (std::uint32_t i = 0; i < kBitmapWords; ++i) {
    if (bits != 0) return word * 64 + std::countr_zero(bits);
    word = (word + 1) % kBitmapWords;
    bits = bitmap_[word];
  }
  // Back at the first word: only its buckets before Now()'s are left,
  // the last span's worth of the wheel.
  return bits != 0 ? word * 64 + std::countr_zero(bits) : kBuckets;
}

bool Simulator::PeekNext(Next* next) {
  const std::uint32_t bucket = FirstBucket();
  // The heap's top is checked for staleness only when it would fire
  // first, so a far overflow entry costs no slab read per event.
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.Top();
    if (bucket != kBuckets) {
      const std::uint32_t slot = heads_[bucket];
      const Event& e = slots_[slot];
      if (EntryLess()(HeapEntry{e.when, e.seq, slot, e.gen}, top)) break;
    }
    if (slots_[top.slot].gen == top.gen) {
      *next = Next{top.slot, top.when};
      return true;
    }
    heap_.PopTop();
  }
  if (bucket == kBuckets) return false;
  const std::uint32_t slot = heads_[bucket];
  *next = Next{slot, slots_[slot].when};
  return true;
}

void Simulator::Fire(const Next& next) {
  Event& e = slots_[next.slot];
  if (InWheel(e)) {
    Unlink(next.slot);
  } else {
    heap_.PopTop();
  }
  now_ = next.when;
  ++executed_events_;
  if (e.interval == SimTime::Zero()) {
    // One-shot: release the slot before invoking so Cancel(own id)
    // inside the callback reports "already fired" and the slot is
    // immediately reusable by whatever the callback schedules.
    Callback fn = std::move(e.fn);
    ReleaseSlot(next.slot);
    --pending_;
    fn();
  } else {
    // Repeat series: the callback runs with the slot held but off the
    // queue, then the series re-arms unless the callback cancelled it
    // (which bumps the generation and drops it from `pending_`). The
    // callback is moved out during the call so a reentrant Cancel never
    // destroys a running function object.
    const std::uint32_t gen = e.gen;
    Callback fn = std::move(e.fn);
    fn();
    Event& e2 = slots_[next.slot];  // the slab may have grown and moved
    if (e2.gen == gen) {
      // Fresh sequence number per occurrence, exactly as if this tick
      // had scheduled its successor — keeps tie-break order identical
      // to an explicit reschedule.
      e2.fn = std::move(fn);
      Enqueue(next.slot, now_ + e2.interval);
    }
  }
}

std::uint64_t Simulator::RunUntil(SimTime horizon) {
  std::uint64_t ran = 0;
  Next next;
  while (PeekNext(&next) && next.when <= horizon) {
    Fire(next);
    ++ran;
  }
  if (now_ < horizon) now_ = horizon;
  return ran;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  Next next;
  while (ran < max_events && PeekNext(&next)) {
    Fire(next);
    ++ran;
  }
  return ran;
}

bool Simulator::Step() {
  Next next;
  if (!PeekNext(&next)) return false;
  Fire(next);
  return true;
}

}  // namespace tdr::sim
