#ifndef TDR_NET_MESSAGE_POOL_H_
#define TDR_NET_MESSAGE_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "storage/types.h"

namespace tdr::net {

/// Pool of recycled, generation-tagged message records — the network's
/// half of the zero-allocation hot path (the simulator's event slab is
/// the other half, see sim/simulator.h).
///
/// Every in-flight, queued (outbox/inbox), or link-parked message is
/// one pooled record holding its endpoints and a sim::Callback (64-byte
/// inline buffer, SBO — see sim/callback.h). Records link into
/// intrusive FIFO queues through their `next` slot index, so parking a
/// message on a cut link or an offline node's queue is a pointer swing,
/// not a deque push. Releasing a record destroys the callback (running
/// RAII releases of any captured payload lease), bumps the slot's
/// generation, and free-lists the slot; steady state allocates nothing.
///
/// Handles are (generation << 32 | slot), like sim::EventId: a stale
/// handle — one that outlived its record — trips the Get() assert
/// instead of silently aliasing a recycled message.
class MessagePool {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kNil = 0;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct Message {
    NodeId from = 0;
    NodeId to = 0;
    /// Duplicate-delivery count (fault injection); the network invokes
    /// `fn` this many times at arrival. Queue::count sums copies so
    /// pending-message accounting matches the one-record-per-copy
    /// representation this pool replaced.
    std::uint32_t copies = 1;
    sim::Callback fn;

   private:
    friend class MessagePool;
    std::uint32_t gen = 1;        // bumped on release; never 0
    std::uint32_t next = kNilSlot;  // queue / free-list link
  };

  /// Intrusive FIFO of pooled messages.
  struct Queue {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
    std::uint64_t count = 0;  // sum of Message::copies
    bool empty() const { return head == kNilSlot; }
  };

  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  Handle Acquire(NodeId from, NodeId to, sim::Callback fn) {
    std::uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Message& m = slots_[slot];
    m.from = from;
    m.to = to;
    m.copies = 1;
    m.fn = std::move(fn);
    m.next = kNilSlot;
    ++in_use_;
    return MakeHandle(slot);
  }

  /// The record behind a live handle. The reference is invalidated by
  /// the next Acquire() (slab growth) — do not hold it across one.
  Message& Get(Handle h) {
    std::uint32_t slot = SlotOf(h);
    assert(slot < slots_.size() && slots_[slot].gen == GenOf(h) &&
           "stale or invalid message handle");
    return slots_[slot];
  }

  /// Destroys the callback (releasing any captured payload lease),
  /// invalidates outstanding handles to the record, and recycles the
  /// slot.
  void Release(Handle h) {
    std::uint32_t slot = SlotOf(h);
    assert(slot < slots_.size() && slots_[slot].gen == GenOf(h) &&
           "double release or stale handle");
    Message& m = slots_[slot];
    m.fn = nullptr;
    ++m.gen;
    if (m.gen == 0) m.gen = 1;
    m.next = free_head_;
    free_head_ = slot;
    assert(in_use_ > 0);
    --in_use_;
  }

  void Push(Queue& q, Handle h) {
    std::uint32_t slot = SlotOf(h);
    Message& m = Get(h);
    m.next = kNilSlot;
    if (q.tail == kNilSlot) {
      q.head = slot;
    } else {
      slots_[q.tail].next = slot;
    }
    q.tail = slot;
    q.count += m.copies;
  }

  /// Pops the front record; kNil when empty.
  Handle Pop(Queue& q) {
    if (q.head == kNilSlot) return kNil;
    std::uint32_t slot = q.head;
    Message& m = slots_[slot];
    q.head = m.next;
    if (q.head == kNilSlot) q.tail = kNilSlot;
    q.count -= m.copies;
    m.next = kNilSlot;
    return MakeHandle(slot);
  }

  /// Detaches the whole chain (the queue becomes empty) for draining:
  ///
  ///   for (Handle h = pool.Detach(q); h != kNil;) {
  ///     Handle next = pool.NextOf(h);
  ///     ...  // may Push/Release h, may Acquire
  ///     h = next;
  ///   }
  ///
  /// Reading NextOf before processing makes the walk immune to the
  /// record being re-queued (which rewrites its link).
  Handle Detach(Queue& q) {
    Handle head = q.head == kNilSlot ? kNil : MakeHandle(q.head);
    q.head = kNilSlot;
    q.tail = kNilSlot;
    q.count = 0;
    return head;
  }

  /// Successor of `h` in the chain it was detached from.
  Handle NextOf(Handle h) {
    std::uint32_t next = Get(h).next;
    return next == kNilSlot ? kNil : MakeHandle(next);
  }

  std::size_t in_use() const { return in_use_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static std::uint32_t SlotOf(Handle h) {
    return static_cast<std::uint32_t>(h);
  }
  static std::uint32_t GenOf(Handle h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  Handle MakeHandle(std::uint32_t slot) const {
    return (static_cast<Handle>(slots_[slot].gen) << 32) | slot;
  }

  std::vector<Message> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t in_use_ = 0;
};

/// Free list of reusable message payload objects (BatchShipper's
/// update batches).
///
/// A sender ships a payload by acquiring a lease, filling `*lease`, and
/// moving the lease into the message callback's capture.
/// The lease destructor — run when the network releases the delivered
/// (or dropped) message — resets the payload via `PoolClear` (found by
/// ADL; the vector overload clears retaining capacity) and free-lists
/// the slot, so per-send payload allocation disappears once buffers
/// have grown to the workload's high-water mark. Handlers may be
/// invoked more than once (duplicate delivery): they must treat the
/// leased payload as read-only.
///
/// The slot store is shared (not owned by the pool object): a lease
/// captured in an undelivered message may legally outlive the scheme
/// that owns the pool — teardown order is scheme first, network (and
/// its parked messages) after — and the last lease standing frees the
/// store.
template <typename T>
class SharedPool {
 private:
  struct State {
    std::vector<std::unique_ptr<T>> slots;
    std::vector<std::uint32_t> free_list;
  };

 public:
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : state_(std::move(other.state_)), idx_(other.idx_) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        state_ = std::move(other.state_);
        idx_ = other.idx_;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    T& operator*() const { return *state_->slots[idx_]; }
    T* operator->() const { return &**this; }
    explicit operator bool() const { return state_ != nullptr; }

   private:
    friend class SharedPool;
    Lease(std::shared_ptr<State> state, std::uint32_t idx)
        : state_(std::move(state)), idx_(idx) {}
    void Release() {
      if (state_ == nullptr) return;
      PoolClear(*state_->slots[idx_]);
      state_->free_list.push_back(idx_);
      state_.reset();
    }

    std::shared_ptr<State> state_;
    std::uint32_t idx_ = 0;
  };

  SharedPool() : state_(std::make_shared<State>()) {}
  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

  /// A cleared payload object (previous capacity retained).
  Lease Acquire() {
    if (!state_->free_list.empty()) {
      std::uint32_t idx = state_->free_list.back();
      state_->free_list.pop_back();
      return Lease(state_, idx);
    }
    auto idx = static_cast<std::uint32_t>(state_->slots.size());
    state_->slots.push_back(std::make_unique<T>());
    return Lease(state_, idx);
  }

  std::size_t pooled() const { return state_->slots.size(); }

 private:
  std::shared_ptr<State> state_;
};

}  // namespace tdr::net

namespace tdr {

/// SharedPool reset hook for plain vector payloads (capacity retained).
template <typename T>
inline void PoolClear(std::vector<T>& v) {
  v.clear();
}

}  // namespace tdr

#endif  // TDR_NET_MESSAGE_POOL_H_
