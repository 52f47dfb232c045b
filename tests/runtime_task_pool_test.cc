// The pooled-task layer under the thread runtime's dispatch: birth
// capacity, exhaustion growth, recycle-on-release, lease release
// without firing (cancel), and a steady-state alloc-audit window
// proving that dispatch performs ZERO heap allocations once warm. This
// binary links tdr_alloc_audit (counting operator new/delete); the
// audit assertions skip when the hooks are absent.

#include "runtime/task_pool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "replication/cluster.h"
#include "replication/eager.h"
#include "runtime/thread_runtime.h"
#include "sim/simulator.h"
#include "txn/program.h"
#include "util/alloc_audit.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace tdr {
namespace {

using runtime::Task;
using runtime::TaskPool;
using runtime::ThreadRuntime;

TEST(TaskPoolTest, BirthCapacityThenExhaustionGrows) {
  TaskPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.grow_events(), 0u);

  std::vector<Task*> held;
  for (int i = 0; i < 4; ++i) held.push_back(pool.Acquire());
  EXPECT_EQ(pool.in_use(), 4u);
  EXPECT_EQ(pool.grow_events(), 0u);

  // Fifth acquire exhausts the free list: one counted growth event,
  // doubling capacity.
  held.push_back(pool.Acquire());
  EXPECT_EQ(pool.grow_events(), 1u);
  EXPECT_EQ(pool.capacity(), 8u);
  EXPECT_EQ(pool.in_use(), 5u);
  EXPECT_EQ(pool.max_in_use(), 5u);

  for (Task* t : held) pool.Release(t);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.max_in_use(), 5u);  // high-water mark sticks
}

TEST(TaskPoolTest, ReleaseRecyclesAndResetsTransientState) {
  TaskPool pool(2);
  Task* t = pool.Acquire();
  runtime::Gate gate;
  t->owned = [] {};
  t->fn = &t->owned;
  t->done = &gate;
  t->node = 3;
  pool.Release(t);

  // LIFO free list: the same wrapper comes back, scrubbed.
  Task* again = pool.Acquire();
  EXPECT_EQ(again, t);
  EXPECT_EQ(again->fn, nullptr);
  EXPECT_FALSE(static_cast<bool>(again->owned));
  EXPECT_EQ(again->done, nullptr);
  EXPECT_EQ(again->node, runtime::kAnyNode);
  pool.Release(again);
}

TEST(TaskPoolTest, AddressesStayStableAcrossGrowth) {
  TaskPool pool(1);
  Task* first = pool.Acquire();
  std::vector<Task*> more;
  for (int i = 0; i < 64; ++i) more.push_back(pool.Acquire());  // many growths
  // `first` is still the same live object — growth never relocates
  // wrappers (deque slab), unlike the vector-backed message pool.
  first->node = 42;
  EXPECT_EQ(first->node, 42u);
  pool.Release(first);
  for (Task* t : more) pool.Release(t);
  EXPECT_EQ(pool.in_use(), 0u);
}

// A cancelled one-shot never fires its wrapper; the lease destructor
// must still return the wrapper to the pool (not leak it).
TEST(TaskPoolRuntimeTest, CancelReleasesPooledTask) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  int ran = 0;
  sim::EventId id =
      rt.ScheduleAfterNode(0, SimTime::Millis(1), [&] { ++ran; });
  EXPECT_EQ(rt.task_pool().in_use(), 1u);
  EXPECT_TRUE(rt.Cancel(id));
  rt.Run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(rt.task_pool().in_use(), 0u);
  EXPECT_EQ(rt.task_pool().grow_events(), 0u);
}

// A repeat series holds ONE wrapper for its whole life, released when
// the series is cancelled.
TEST(TaskPoolRuntimeTest, RepeatSeriesHoldsOneWrapperUntilCancelled) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/2, &metrics);
  int ticks = 0;
  sim::EventId series = rt.RepeatEvery(SimTime::Millis(1), [&] { ++ticks; });
  rt.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(rt.task_pool().in_use(), 1u);
  EXPECT_TRUE(rt.Cancel(series));
  rt.Run();
  EXPECT_EQ(rt.task_pool().in_use(), 0u);
}

// Scheduling a same-time wave wider than the pool grows it once
// (counted) and the next identical wave reuses the grown pool — no
// further growth.
TEST(TaskPoolRuntimeTest, WaveWiderThanPoolGrowsOnceThenReuses) {
  sim::Simulator clock;
  obs::MetricsRegistry metrics;
  ThreadRuntime rt(&clock, /*num_nodes=*/4, &metrics);
  constexpr int kPerNode = ThreadRuntime::kTaskPoolCapacity / 4 + 16;
  constexpr int kWidth = 4 * kPerNode;
  int ran = 0;
  auto wave = [&](SimTime when) {
    for (std::uint32_t node = 0; node < 4; ++node) {
      for (int k = 0; k < kPerNode; ++k) {
        rt.ScheduleAtNode(node, when, [&] { ++ran; });
      }
    }
  };
  wave(SimTime::Millis(1));
  EXPECT_GT(rt.task_pool().grow_events(), 0u);
  const std::uint64_t grown = rt.task_pool().grow_events();
  rt.Run();
  EXPECT_EQ(ran, kWidth);
  EXPECT_EQ(rt.task_pool().in_use(), 0u);

  wave(SimTime::Millis(2));
  rt.Run();
  EXPECT_EQ(ran, 2 * kWidth);
  EXPECT_EQ(rt.task_pool().grow_events(), grown);  // pool was reused
  EXPECT_EQ(rt.dispatched(), static_cast<std::uint64_t>(2 * kWidth));
}

// The alloc-audit gate: one warm thread-backend cluster, and the
// measured traffic window must be allocation-free (up to the
// pool-ratchet budget alloc_audit_test uses).

// Sanitizer builds interpose the allocator themselves; the counting
// operator-new replacement measures the sanitizer runtime, not the
// dispatch path, so the budget assertion only runs on plain builds.
constexpr bool kSanitized =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

TEST(DispatchAllocTest, SteadyStateDispatchAllocatesNothing) {
  if (!AllocAuditLinked() || kSanitized) {
    GTEST_SKIP() << "alloc-audit hooks absent or sanitizer build";
  }
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint64_t kDbSize = 1024;
  Cluster::Options copts;
  copts.num_nodes = kNodes;
  copts.db_size = kDbSize;
  copts.action_time = SimTime::Millis(5);
  copts.seed = 42;
  copts.backend = RuntimeBackend::kThreads;
  Cluster cluster(copts);
  EagerGroupScheme scheme(&cluster);

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  auto pump = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (NodeId origin = 0; origin < kNodes; ++origin) {
        gen.NextInto(rng, &scratch);
        scheme.Submit(origin, scratch, nullptr);
      }
      cluster.runtime().RunUntil(cluster.runtime().Now() +
                                 SimTime::Millis(20));
    }
  };

  // Warmup ratchets every pool — task wrappers, messages, lock tables
  // — to the traffic's working set.
  pump(2000);

  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    TraceNextAllocations(std::atoll(trace));
  }
  const std::uint64_t grown_before =
      cluster.thread_runtime()->task_pool().grow_events();
  AllocScope window;
  pump(400);
  EXPECT_LE(window.allocations(), 12u)
      << "steady-state dispatch window allocated " << window.allocations()
      << " times (" << window.bytes() << " bytes)";
  EXPECT_EQ(cluster.thread_runtime()->task_pool().grow_events(), grown_before)
      << "task pool grew during the measured window";
}

}  // namespace
}  // namespace tdr
