// Property test for the thread backend: N randomized (seed, scheme,
// fault-plan, dispatch-mode) triples must converge to the sim oracle's
// digest after drain. On a mismatch the failing triple is SHRUNK —
// shorter window, turn-based dispatch, no partition, no drops, fewer
// nodes — and the minimal still-failing configuration is reported, so
// a regression arrives as a small reproducer rather than a
// 6-dimensional haystack.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/rng.h"

namespace tdr::bench {
namespace {

constexpr std::uint64_t kTriples = 12;

using DispatchMode = runtime::ThreadRuntime::DispatchMode;

// Thread-backend dispatch modes the triples draw from: turn-based is
// the baseline (also the shrink target).
constexpr DispatchMode kDispatchModes[] = {DispatchMode::kTurnBased,
                                           DispatchMode::kEpoch};

struct Triple {
  SchemeKind kind = SchemeKind::kEagerGroup;
  std::uint64_t seed = 1;
  std::uint32_t nodes = 3;
  std::uint32_t shards = 1;
  double sim_seconds = 2;
  double drop_probability = 0;
  bool partition_cycle = false;
  DispatchMode dispatch = DispatchMode::kTurnBased;

  std::string Describe() const {
    std::string s{SchemeKindName(kind)};
    s += " seed=" + std::to_string(seed);
    s += " nodes=" + std::to_string(nodes);
    s += " shards=" + std::to_string(shards);
    s += " sim_seconds=" + std::to_string(sim_seconds);
    s += " drop=" + std::to_string(drop_probability);
    s += partition_cycle ? " partition" : "";
    s += dispatch == DispatchMode::kEpoch ? " dispatch=epoch"
                                          : " dispatch=turn";
    return s;
  }
};

SimConfig ToConfig(const Triple& t, RuntimeBackend backend) {
  SimConfig c;
  c.kind = t.kind;
  c.nodes = t.nodes;
  c.db_size = 64;
  c.tps = 20;
  c.actions = 3;
  c.action_time = 0.01;
  c.sim_seconds = t.sim_seconds;
  c.seed = t.seed;
  c.num_shards = t.shards;
  c.fault_drop_probability = t.drop_probability;
  c.fault_partition_cycle = t.partition_cycle;
  c.backend = backend;
  c.dispatch = t.dispatch;  // read by the thread backend only
  c.drain = true;  // faulted runs drain anyway; make fault-free match
  if (t.kind == SchemeKind::kLazyGroup || t.kind == SchemeKind::kLazyMaster) {
    c.batch_flush_window = 0.04;
    c.batch_max_updates = 6;
  }
  return c;
}

bool BackendsAgree(const Triple& t) {
  SimOutcome sim_out = RunScheme(ToConfig(t, RuntimeBackend::kSim));
  SimOutcome thr_out = RunScheme(ToConfig(t, RuntimeBackend::kThreads));
  return sim_out.state_digest == thr_out.state_digest &&
         sim_out.shard_digests == thr_out.shard_digests &&
         sim_out.committed == thr_out.committed &&
         sim_out.delusion_slots == thr_out.delusion_slots;
}

// Shrink order: each step removes one source of complexity while the
// triple still fails; the first step that makes it pass is undone.
Triple Shrink(Triple failing) {
  auto try_step = [&failing](Triple candidate) {
    if (!BackendsAgree(candidate)) failing = candidate;
  };
  Triple half = failing;
  half.sim_seconds = failing.sim_seconds / 2;
  try_step(half);
  if (failing.dispatch == DispatchMode::kEpoch) {
    // Does the plain turn-based backend also fail, or is the bug in
    // epoch dispatch itself?
    Triple turn = failing;
    turn.dispatch = DispatchMode::kTurnBased;
    try_step(turn);
  }
  if (failing.partition_cycle) {
    Triple no_partition = failing;
    no_partition.partition_cycle = false;
    try_step(no_partition);
  }
  if (failing.drop_probability > 0) {
    Triple no_drops = failing;
    no_drops.drop_probability = 0;
    try_step(no_drops);
  }
  if (failing.nodes > 3) {
    Triple fewer = failing;
    fewer.nodes = 3;
    try_step(fewer);
  }
  if (failing.shards > 1) {
    Triple one_shard = failing;
    one_shard.shards = 1;
    try_step(one_shard);
  }
  return failing;
}

TEST(RuntimePropertyTest, RandomizedTriplesConvergeToSimOracleDigest) {
  constexpr SchemeKind kAllSchemes[] = {
      SchemeKind::kEagerGroup,    SchemeKind::kEagerGroupParallel,
      SchemeKind::kEagerGroupReadLocks, SchemeKind::kEagerMaster,
      SchemeKind::kLazyGroup,     SchemeKind::kLazyMaster,
  };
  constexpr double kDropLevels[] = {0, 0.01, 0.03};
  Rng rng(20260808);
  for (std::uint64_t i = 0; i < kTriples; ++i) {
    Triple t;
    t.kind = kAllSchemes[rng.UniformInt(6)];
    t.seed = 1 + rng.UniformInt(1000);
    t.nodes = 3 + static_cast<std::uint32_t>(rng.UniformInt(3));  // 3..5
    t.shards = 1 + static_cast<std::uint32_t>(rng.UniformInt(3));  // 1..3
    t.sim_seconds = 2;
    t.drop_probability = kDropLevels[rng.UniformInt(3)];
    t.partition_cycle = rng.Bernoulli(0.5);
    t.dispatch = kDispatchModes[rng.UniformInt(std::size(kDispatchModes))];
    SCOPED_TRACE("triple " + std::to_string(i) + ": " + t.Describe());
    if (!BackendsAgree(t)) {
      Triple minimal = Shrink(t);
      FAIL() << "thread backend diverged from sim oracle.\n  failing: "
             << t.Describe() << "\n  minimal: " << minimal.Describe();
    }
  }
}

}  // namespace
}  // namespace tdr::bench
