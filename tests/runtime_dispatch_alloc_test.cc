// The thread backend's dispatch path under the alloc-audit harness: a
// warm thread-backend cluster's steady-state traffic window stays
// within a fixed allocation budget. This binary links tdr_alloc_audit
// (counting operator new/delete); the audit assertion skips when the
// hooks are absent.

#include <gtest/gtest.h>

#include <cstdlib>

#include "replication/cluster.h"
#include "replication/eager.h"
#include "txn/program.h"
#include "util/alloc_audit.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace tdr {
namespace {

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
      cluster.sim().RunUntil(cluster.sim().Now() + SimTime::Millis(20));
    }
  };

  // Warmup ratchets every pool — event slots, messages, lock tables —
  // to the traffic's working set.
  pump(2000);

  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    TraceNextAllocations(std::atoll(trace));
  }
  AllocScope window;
  pump(400);
  EXPECT_LE(window.allocations(), 12u)
      << "steady-state dispatch window allocated " << window.allocations()
      << " times (" << window.bytes() << " bytes)";
}

}  // namespace
}  // namespace tdr
