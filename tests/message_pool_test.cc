// MessagePool + SharedPool units: recycle/generation-tag behavior,
// intrusive queues, detach-and-walk, growth under exhaustion of the
// free list, and the lease-outlives-pool teardown contract the
// runtime backend's shutdown path depends on.

#include "net/message_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "storage/update_record.h"

namespace tdr::net {
namespace {

using Handle = MessagePool::Handle;
using RecordPool = SharedPool<std::vector<UpdateRecord>>;

TEST(MessagePoolTest, AcquireReleaseRecyclesSlots) {
  MessagePool pool;
  Handle a = pool.Acquire(0, 1, [] {});
  Handle b = pool.Acquire(1, 2, [] {});
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.capacity(), 2u);
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.in_use(), 0u);
  // Recycled: same capacity, fresh generation-tagged handles.
  Handle c = pool.Acquire(2, 0, [] {});
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(pool.Get(c).from, 2u);
  EXPECT_EQ(pool.Get(c).to, 0u);
  pool.Release(c);
}

// Exhaustion: drive the pool far past its initial size, release
// everything, and verify the slab is a high-water mark — reacquiring
// the same load allocates no new slots and every callback still runs.
TEST(MessagePoolTest, ExhaustionGrowsThenRecyclesAtHighWaterMark) {
  constexpr std::size_t kLoad = 4096;
  MessagePool pool;
  int ran = 0;
  std::vector<Handle> handles;
  handles.reserve(kLoad);
  for (std::size_t i = 0; i < kLoad; ++i) {
    handles.push_back(pool.Acquire(0, 1, [&ran] { ++ran; }));
  }
  EXPECT_EQ(pool.in_use(), kLoad);
  EXPECT_EQ(pool.capacity(), kLoad);
  for (Handle h : handles) {
    pool.Get(h).fn();
    pool.Release(h);
  }
  EXPECT_EQ(ran, static_cast<int>(kLoad));
  EXPECT_EQ(pool.in_use(), 0u);
  // Second wave: free-listed slots only, no slab growth.
  handles.clear();
  for (std::size_t i = 0; i < kLoad; ++i) {
    handles.push_back(pool.Acquire(1, 0, [&ran] { ++ran; }));
  }
  EXPECT_EQ(pool.capacity(), kLoad);
  EXPECT_EQ(pool.in_use(), kLoad);
  for (Handle h : handles) pool.Release(h);
}

TEST(MessagePoolTest, ReleaseDestroysCallbackAndCapturedState) {
  MessagePool pool;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  Handle h = pool.Acquire(0, 1, [token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  pool.Release(h);
  // The callback (and its captured shared_ptr) died with the record.
  EXPECT_TRUE(watch.expired());
}

TEST(MessagePoolTest, QueuePushPopIsFifoAndCountsCopies) {
  MessagePool pool;
  MessagePool::Queue q;
  Handle a = pool.Acquire(0, 1, [] {});
  Handle b = pool.Acquire(0, 1, [] {});
  pool.Get(b).copies = 3;  // duplicate-delivery accounting
  pool.Push(q, a);
  pool.Push(q, b);
  EXPECT_EQ(q.count, 4u);
  EXPECT_EQ(pool.Pop(q), a);
  EXPECT_EQ(q.count, 3u);
  EXPECT_EQ(pool.Pop(q), b);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(pool.Pop(q), MessagePool::kNil);
  pool.Release(a);
  pool.Release(b);
}

TEST(MessagePoolTest, DetachWalkSurvivesRequeueAndRelease) {
  MessagePool pool;
  MessagePool::Queue q;
  MessagePool::Queue requeued;
  std::vector<Handle> all;
  for (int i = 0; i < 6; ++i) {
    Handle h = pool.Acquire(0, 1, [] {});
    all.push_back(h);
    pool.Push(q, h);
  }
  // The documented drain idiom: read NextOf first, then the walk is
  // immune to the record being re-queued or released.
  int visited = 0;
  for (Handle h = pool.Detach(q); h != MessagePool::kNil;) {
    Handle next = pool.NextOf(h);
    if (visited % 2 == 0) {
      pool.Push(requeued, h);  // rewrites h's link
    } else {
      pool.Release(h);
    }
    ++visited;
    h = next;
  }
  EXPECT_EQ(visited, 6);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(requeued.count, 3u);
  for (Handle h = pool.Detach(requeued); h != MessagePool::kNil;) {
    Handle next = pool.NextOf(h);
    pool.Release(h);
    h = next;
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(SharedPoolTest, LeaseResetsPayloadRetainingCapacity) {
  RecordPool pool;
  {
    RecordPool::Lease lease = pool.Acquire();
    lease->resize(100);
    EXPECT_GE(lease->capacity(), 100u);
  }
  // Same slot comes back cleared but with capacity retained.
  RecordPool::Lease again = pool.Acquire();
  EXPECT_TRUE(again->empty());
  EXPECT_GE(again->capacity(), 100u);
  EXPECT_EQ(pool.pooled(), 1u);
}

// The contract runtime-backend shutdown leans on: teardown order is
// scheme (pool owner) first, network second, so a lease captured in an
// undelivered message outlives the pool object. The shared slot store
// must survive until the last lease releases.
TEST(SharedPoolTest, LeaseOutlivesDestroyedPool) {
  auto pool = std::make_unique<RecordPool>();
  RecordPool::Lease survivor = pool->Acquire();
  survivor->push_back(UpdateRecord{});
  pool.reset();  // the scheme died; the message is still parked
  ASSERT_TRUE(static_cast<bool>(survivor));
  EXPECT_EQ(survivor->size(), 1u);
  // Destructor of `survivor` frees the last reference to the store.
}

TEST(SharedPoolTest, LeaseMoveTransfersOwnership) {
  RecordPool pool;
  RecordPool::Lease a = pool.Acquire();
  a->push_back(UpdateRecord{});
  RecordPool::Lease b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b->size(), 1u);
  RecordPool::Lease c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  ASSERT_TRUE(static_cast<bool>(c));
}

}  // namespace
}  // namespace tdr::net
