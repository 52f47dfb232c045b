// Allocation-regression gate for the zero-allocation hot paths.
//
// Steady state is defined as: pools warmed by a first traffic window,
// then a second, identical window. Over that second window the entire
// transaction path — plan build, executor, hashed lock tables +
// wait-for graph, pooled network messages, batch shipping, replica
// apply — must perform ZERO heap allocations, for every scheme class,
// batched and unbatched. This binary links tdr_alloc_audit, replacing
// global operator new/delete with the counting hooks; if the hooks are
// absent the assertions are vacuous, so the tests skip instead.
//
// The fault-path tests pin down the lifetime story the pooling relies
// on: message payload leases parked in outboxes and on cut links must
// survive crash/restart log recovery and partition heal/redeliver, with
// the invariant checker green throughout.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "fault/invariant_checker.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "replication/scheme_factory.h"
#include "util/alloc_audit.h"
#include "workload/workload.h"

namespace tdr {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kDbSize = 1024;

Cluster::Options BaseOptions() {
  Cluster::Options o;
  o.num_nodes = kNodes;
  o.db_size = kDbSize;
  o.action_time = SimTime::Millis(5);
  o.seed = 42;
  return o;
}

// gtest prints SteadyStateConfig into the ctest names as raw bytes, so
// these values stay fixed.
enum class AuditScheme {
  kEagerGroup,
  kLazyGroup,
  kLazyGroupBatched,
  kLazyMaster,
  kLazyMasterBatched,
  kQuorum,
};

struct SteadyStateConfig {
  const char* name;
  AuditScheme kind;
};

/// The factory's scheme for `kind`; the batched ones ship in 50 ms
/// windows.
ClusterScheme BuildScheme(AuditScheme kind, Cluster* cluster) {
  constexpr SchemeKind kKinds[] = {
      SchemeKind::kEagerGroup, SchemeKind::kLazyGroup,
      SchemeKind::kLazyGroup,  SchemeKind::kLazyMaster,
      SchemeKind::kLazyMaster, SchemeKind::kQuorum,
  };
  BatchShipper::Options batch{SimTime::Zero(), 0, true};
  if (kind == AuditScheme::kLazyGroupBatched ||
      kind == AuditScheme::kLazyMasterBatched) {
    batch = {SimTime::Millis(50), 128, true};
  }
  return MakeScheme(cluster, kKinds[static_cast<int>(kind)], batch);
}

/// One traffic window: every node submits one generated transaction,
/// then the simulator advances 20 ms, `rounds` times over. All state
/// the pump touches (program scratch, rng) is caller-owned, so the
/// pump itself adds no per-call allocations.
void PumpTransactions(Cluster& cluster, ReplicationScheme* scheme,
                      ProgramGenerator& gen, Rng& rng, Program& scratch,
                      int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (NodeId origin = 0; origin < kNodes; ++origin) {
      gen.NextInto(rng, &scratch);
      scheme->Submit(origin, scratch, nullptr);
    }
    cluster.sim().RunUntil(cluster.sim().Now() + SimTime::Millis(20));
  }
}

class SteadyStateAllocTest
    : public ::testing::TestWithParam<SteadyStateConfig> {};

TEST_P(SteadyStateAllocTest, SecondWindowAllocatesNothing) {
  if (!AllocAuditLinked()) {
    GTEST_SKIP() << "tdr_alloc_audit hooks not linked";
  }
  Cluster cluster(BaseOptions());
  ClusterScheme built = BuildScheme(GetParam().kind, &cluster);
  ReplicationScheme* scheme = built.scheme.get();

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  // Warmup window: grows every pool and scratch buffer (inflight txns,
  // lock waiters, wait-for-graph nodes, message slots, payload leases,
  // batch streams, applier jobs) to the traffic's working set.
  PumpTransactions(cluster, scheme, gen, rng, scratch, 4000);


  // Pooled buffers ratchet capacity to the all-time maximum the traffic
  // ever needed (wait-queue depth, concurrent-job count, event-queue
  // depth). A record-breaking event still allocates — but records
  // arrive at a decaying O(log n) rate, which is capacity growth, not
  // per-transaction work. "Zero allocations per committed transaction"
  // is therefore gated with budgets two orders of magnitude below one
  // allocation per transaction: a leak of even 1 alloc per 100 txns
  // would blow both windows (16 > 12 and 64 > 48), while the handful
  // of genuine late ratchet events fits comfortably.
  //
  // Debugging aid, same contract as bench_hot_path: TDR_TRACE_ALLOCS=N
  // dumps backtraces for the first N measured allocations to stderr
  // (resolve with addr2line -e tests/alloc_audit_test -f -C).
  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    TraceNextAllocations(std::atoll(trace));
  }
  AllocScope window_1x;
  PumpTransactions(cluster, scheme, gen, rng, scratch, 400);
  std::uint64_t allocs_1x = window_1x.allocations();

  AllocScope window_4x;
  PumpTransactions(cluster, scheme, gen, rng, scratch, 1600);
  std::uint64_t allocs_4x = window_4x.allocations();

  EXPECT_LE(allocs_1x, 12u)
      << "1600-txn steady-state window allocated " << allocs_1x
      << " times (" << window_1x.bytes() << " bytes)";
  EXPECT_LE(allocs_4x, 48u)
      << "6400-txn steady-state window allocated " << allocs_4x
      << " times (" << window_4x.bytes() << " bytes)";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SteadyStateAllocTest,
    ::testing::Values(
        SteadyStateConfig{"eager_group", AuditScheme::kEagerGroup},
        SteadyStateConfig{"lazy_group", AuditScheme::kLazyGroup},
        SteadyStateConfig{"lazy_group_batched",
                          AuditScheme::kLazyGroupBatched},
        SteadyStateConfig{"lazy_master", AuditScheme::kLazyMaster},
        SteadyStateConfig{"lazy_master_batched",
                          AuditScheme::kLazyMasterBatched},
        SteadyStateConfig{"quorum", AuditScheme::kQuorum}),
    [](const ::testing::TestParamInfo<SteadyStateConfig>& info) {
      return info.param.name;
    });

// The WAL commit path — record encode into the pending buffer, waiter
// parking, group-commit flush scheduling, sync completion — must be as
// allocation-free in steady state as the transaction machinery it
// rides on. Same two-window protocol and budgets as above.
TEST(WalSteadyStateAllocTest, SecondWindowAllocatesNothing) {
  if (!AllocAuditLinked()) {
    GTEST_SKIP() << "tdr_alloc_audit hooks not linked";
  }
  Cluster::Options copts = BaseOptions();
  copts.wal.mode = DurabilityMode::kGroup;
  // Segments big enough that the measured windows never roll: a roll is
  // O(total bytes / segment bytes) capacity growth, not per-commit
  // work, and MemWalBackend reserves each segment's buffer up front.
  copts.wal.segment_bytes = 32ull << 20;
  Cluster cluster(copts);
  EagerGroupScheme scheme(&cluster);

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  PumpTransactions(cluster, &scheme, gen, rng, scratch, 4000);

  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    TraceNextAllocations(std::atoll(trace));
  }
  AllocScope window_1x;
  PumpTransactions(cluster, &scheme, gen, rng, scratch, 400);
  std::uint64_t allocs_1x = window_1x.allocations();

  AllocScope window_4x;
  PumpTransactions(cluster, &scheme, gen, rng, scratch, 1600);
  std::uint64_t allocs_4x = window_4x.allocations();

  // The windows really went through the log: every node appended and
  // synced records.
  for (NodeId id = 0; id < kNodes; ++id) {
    EXPECT_GT(cluster.wals()->wal(id)->durable_lsn(), 0u);
  }
  EXPECT_LE(allocs_1x, 12u)
      << "1600-txn WAL steady-state window allocated " << allocs_1x
      << " times (" << window_1x.bytes() << " bytes)";
  EXPECT_LE(allocs_4x, 48u)
      << "6400-txn WAL steady-state window allocated " << allocs_4x
      << " times (" << window_4x.bytes() << " bytes)";
}

// On a sharded cluster every replica batch fans out into one
// sub-transaction per shard; that fan-out rides the same allocation
// contract as the rest of the hot path. Same two-window protocol and
// budgets as above.
TEST(ShardedApplyAllocTest, SecondWindowAllocatesNothing) {
  if (!AllocAuditLinked()) {
    GTEST_SKIP() << "tdr_alloc_audit hooks not linked";
  }
  Cluster::Options copts = BaseOptions();
  copts.num_shards = 4;
  Cluster cluster(copts);
  ClusterScheme built = BuildScheme(AuditScheme::kLazyGroupBatched, &cluster);
  ReplicationScheme* scheme = built.scheme.get();

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  PumpTransactions(cluster, scheme, gen, rng, scratch, 4000);

  if (const char* trace = std::getenv("TDR_TRACE_ALLOCS")) {
    TraceNextAllocations(std::atoll(trace));
  }
  AllocScope window_1x;
  PumpTransactions(cluster, scheme, gen, rng, scratch, 400);
  std::uint64_t allocs_1x = window_1x.allocations();

  AllocScope window_4x;
  PumpTransactions(cluster, scheme, gen, rng, scratch, 1600);
  std::uint64_t allocs_4x = window_4x.allocations();

  EXPECT_LE(allocs_1x, 12u)
      << "1600-txn steady-state window allocated " << allocs_1x
      << " times (" << window_1x.bytes() << " bytes)";
  EXPECT_LE(allocs_4x, 48u)
      << "6400-txn steady-state window allocated " << allocs_4x
      << " times (" << window_4x.bytes() << " bytes)";
}

// A replica costs its store slot and nothing else per object: two
// clusters that differ only in db_size differ in allocated bytes by
// exactly nodes x the extra objects x sizeof(StoredObject). A per-object
// lock slot, version vector or index would show as extra bytes.
TEST(FootprintTest, PerObjectBytesAreTheStoreSlot) {
  if (!AllocAuditLinked()) {
    GTEST_SKIP() << "tdr_alloc_audit hooks not linked";
  }
  auto cluster_bytes = [](std::uint64_t db_size) {
    Cluster::Options o = BaseOptions();
    o.db_size = db_size;
    AllocScope scope;
    Cluster cluster(o);
    return scope.bytes();
  };
  // The first Cluster of a process also sets up state once for all.
  cluster_bytes(kDbSize);
  constexpr std::uint64_t kExtra = 3 * kDbSize;
  const std::uint64_t small = cluster_bytes(kDbSize);
  const std::uint64_t extra = cluster_bytes(kDbSize + kExtra) - small;
  const std::uint64_t slots = kNodes * kExtra * sizeof(StoredObject);
  EXPECT_EQ(extra, slots);
}

// The invariant sweep scans the node stores in place. Once the first
// sweep has created the checker's counters, a sweep allocates a
// constant few times however many objects it checks, not once per
// object.
TEST(InvariantSweepAllocTest, RepeatSweepAllocatesAFewTimes) {
  if (!AllocAuditLinked()) {
    GTEST_SKIP() << "tdr_alloc_audit hooks not linked";
  }
  Cluster cluster(BaseOptions());
  fault::InvariantChecker::Options iopts;
  iopts.scheme = fault::SchemeClass::kEagerGroup;
  fault::InvariantChecker checker(&cluster, iopts);
  checker.CheckNow();

  AllocScope sweep;
  checker.CheckNow();
  const std::uint64_t allocs = sweep.allocations();
  EXPECT_LE(allocs, 4u) << "sweep allocated " << allocs << " times";
  EXPECT_EQ(checker.violations_total(), 0u);
}

// A disconnected origin's replica updates park in its outbox as pooled
// payload leases. Crash discards the inbox copy of its traffic; the
// outbox (the durable log) survives and Restart re-ships it. The leases
// must stay valid across the whole park -> crash -> restart -> deliver
// arc, and the lazy-group invariants must hold throughout.
TEST(PooledMessageFaultTest, CrashRestartOutboxRecoveryKeepsInvariants) {
  Cluster cluster(BaseOptions());
  LazyGroupScheme scheme(&cluster);
  fault::InvariantChecker::Options iopts;
  iopts.scheme = fault::SchemeClass::kLazyGroup;
  fault::InvariantChecker checker(&cluster, iopts);

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  PumpTransactions(cluster, &scheme, gen, rng, scratch, 20);
  checker.CheckNow();

  // Disconnect node 0 and keep submitting there: root transactions
  // still run locally (the mobile-node scenario) and their replica
  // updates queue in node 0's outbox.
  cluster.net().SetConnected(0, false);
  PumpTransactions(cluster, &scheme, gen, rng, scratch, 20);
  EXPECT_GT(cluster.net().PendingAt(0), 0u);
  auto applied = [&cluster] {
    return cluster.metrics().Get("replica.applied");
  };
  std::uint64_t applied_before = applied();

  // Crash + restart. The outbox survives (it models the durable log);
  // restart reconnects and re-ships it.
  cluster.net().Crash(0);
  PumpTransactions(cluster, &scheme, gen, rng, scratch, 5);
  cluster.net().Restart(0);
  cluster.sim().Run();

  // The parked pooled payloads were delivered and applied.
  EXPECT_EQ(cluster.net().PendingAt(0), 0u);
  EXPECT_GT(applied(), applied_before);
  checker.CheckNow();
  checker.CheckFinal();
  EXPECT_EQ(checker.violations_total(), 0u);
}

// Batched refresh streams ship pooled UpdateBatch leases. Cut links
// park them per-link; healing must redeliver every batch in FIFO order
// and the cluster must converge (lazy-master guarantees convergence
// once the refresh stream drains).
TEST(PooledMessageFaultTest, PartitionParkAndRedeliverConverges) {
  Cluster cluster(BaseOptions());
  std::vector<NodeId> all_nodes(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) all_nodes[i] = i;
  Ownership ownership = Ownership::RoundRobin(kDbSize, all_nodes);
  LazyMasterScheme::Options sopts;
  sopts.batch = BatchShipper::Options{SimTime::Millis(50), 0, true};
  LazyMasterScheme scheme(&cluster, &ownership, sopts);

  fault::InvariantChecker::Options iopts;
  iopts.scheme = fault::SchemeClass::kLazyMaster;
  iopts.ownership = &ownership;
  fault::InvariantChecker checker(&cluster, iopts);

  ProgramGenerator::Options gopts;
  gopts.db_size = kDbSize;
  gopts.actions = 4;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  Program scratch;

  PumpTransactions(cluster, &scheme, gen, rng, scratch, 20);

  // Partition: refreshes crossing the cut links park as pooled batches.
  cluster.net().SetLinkUp(0, 2, false);
  cluster.net().SetLinkUp(1, 3, false);
  PumpTransactions(cluster, &scheme, gen, rng, scratch, 20);
  scheme.FlushAllBatches();
  cluster.sim().Run();
  EXPECT_GT(cluster.net().HeldCount(), 0u);

  // Heal. Parked batches redeliver; the stream drains; replicas
  // converge on the master copies.
  cluster.net().SetLinkUp(0, 2, true);
  cluster.net().SetLinkUp(1, 3, true);
  scheme.FlushAllBatches();
  cluster.sim().Run();
  EXPECT_EQ(cluster.net().HeldCount(), 0u);

  checker.CheckNow();
  checker.CheckFinal();
  EXPECT_EQ(checker.violations_total(), 0u);
}

}  // namespace
}  // namespace tdr
