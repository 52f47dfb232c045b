// E11 — §6: non-transactional convergence schemes. Reproduces the
// section's qualitative claims quantitatively:
//
//  * "Timestamp schemes are vulnerable to lost updates": K concurrent
//    read-modify-write REPLACEs of a counter converge but lose all but
//    one increment per conflict round.
//  * Commutative updates (deltas / appends) converge with ZERO lost
//    updates — "incremental transformations ... applied in any order".
//  * Version vectors (Microsoft Access "Wingman") detect exactly the
//    concurrent update pairs; "rejected updates are reported".
//  * Oracle-7-style pluggable rules (site/time/value priority, additive
//    merge) all converge; only the additive rule preserves every effect.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "replication/convergence.h"

namespace tdr::bench {
namespace {

struct ConvResult {
  std::int64_t final_value = 0;
  std::int64_t intended = 0;
  std::uint64_t conflicts = 0;
  bool converged = false;

  std::int64_t lost() const { return intended - final_value; }
};

// Each of `replicas` replicas applies `updates_each` +1 increments to
// one counter, then the cluster converges with `rule` (state-based) or
// with op gossip (if `use_ops`).
ConvResult RunCounter(std::uint32_t replicas, int updates_each,
                      bool use_ops, const ReconciliationRule& rule,
                      int rounds) {
  ConvResult result;
  GossipCluster cluster(replicas, 1);
  for (int round = 0; round < rounds; ++round) {
    for (NodeId r = 0; r < replicas; ++r) {
      for (int i = 0; i < updates_each; ++i) {
        if (use_ops) {
          cluster.replica(r).LocalDelta(0, 1);
        } else {
          cluster.replica(r).LocalReplaceAdd(0, 1);
        }
        ++result.intended;
      }
    }
    if (use_ops) {
      cluster.ConvergeOps();
    } else {
      result.conflicts += cluster.ConvergeState(rule);
    }
  }
  result.converged = cluster.Converged();
  result.final_value =
      cluster.replica(0).store().GetUnchecked(0).AsScalar();
  return result;
}

}  // namespace

void Main() {
  PrintBanner("E11", "Convergence without transactions",
              "Section 6 (pp. 179-180)");
  const std::uint32_t kReplicas = 4;
  const int kUpdates = 5;
  const int kRounds = 10;
  std::printf("%u replicas x %d increments/round x %d rounds; intended "
              "final counter = %d\n\n",
              kReplicas, kUpdates, kRounds,
              kReplicas * kUpdates * kRounds);

  std::printf("%-26s | %9s | %9s | %9s | %s\n", "scheme", "final",
              "lost", "conflicts", "converged");
  std::printf("---------------------------+-----------+-----------+------"
              "-----+----------\n");
  struct Entry {
    const char* name;
    bool use_ops;
    ReconciliationRule rule;
  };
  std::vector<Entry> entries;
  entries.push_back({"LWW replace (Notes)", false, TimePriorityRule()});
  entries.push_back({"site priority (Oracle)", false, SitePriorityRule()});
  entries.push_back({"value priority (Oracle)", false, ValuePriorityRule()});
  entries.push_back({"commutative deltas", true, nullptr});
  for (const Entry& e : entries) {
    ConvResult r =
        RunCounter(kReplicas, kUpdates, e.use_ops, e.rule, kRounds);
    std::printf("%-26s | %9lld | %9lld | %9llu | %s\n", e.name,
                (long long)r.final_value, (long long)r.lost(),
                (unsigned long long)r.conflicts,
                r.converged ? "yes" : "NO");
  }
  // The additive state-merge rule is exact only for a single conflicting
  // pair over a common zero base (its documented contract) — shown in
  // that regime; the general commutative mechanism is the op-based row
  // above.
  {
    ConvResult r = RunCounter(2, kUpdates, false, AdditiveMergeRule(), 1);
    std::printf("%-26s | %9lld | %9lld | %9llu | %s   (2 replicas, "
                "1 round)\n",
                "additive merge (Oracle)", (long long)r.final_value,
                (long long)(2 * kUpdates - r.final_value),
                (unsigned long long)r.conflicts,
                r.converged ? "yes" : "NO");
  }

  // Version-vector conflict detection: the number of reported conflicts
  // equals the number of truly concurrent pairwise update races.
  std::printf("\nVersion-vector detection (Access 'Wingman'):\n");
  {
    GossipCluster cluster(3, 4);
    // Two concurrent updates to object 0, one lone update to object 1.
    cluster.replica(0).LocalReplace(0, Value(10));
    cluster.replica(1).LocalReplace(0, Value(20));
    cluster.replica(2).LocalReplace(1, Value(30));
    std::uint64_t conflicts = cluster.ConvergeState(TimePriorityRule());
    std::printf("  3 updates, 1 concurrent pair -> %llu conflict(s) "
                "reported, converged=%s\n",
                (unsigned long long)conflicts,
                cluster.Converged() ? "yes" : "NO");
  }

  // Notes-style append: all notes from all replicas survive, in
  // timestamp order, at every replica.
  std::printf("\nTimestamped append (Notes):\n");
  {
    GossipCluster cluster(3, 1);
    int notes = 0;
    for (NodeId r = 0; r < 3; ++r) {
      for (int i = 0; i < 4; ++i) {
        cluster.replica(r).LocalAppend(0, 100 * (r + 1) + i);
        ++notes;
      }
    }
    cluster.ConvergeOps();
    std::printf("  %d notes appended at 3 replicas -> every replica holds "
                "%zu notes, converged=%s\n",
                notes,
                cluster.replica(0).store().GetUnchecked(0).AsList()
                    .size(),
                cluster.Converged() ? "yes" : "NO");
  }
  std::printf(
      "\n§6's conclusion, reproduced: convergence alone is cheap, but\n"
      "only commutative updates converge to the state that reflects ALL\n"
      "committed work — the design trick the two-tier scheme builds on.\n");
}

}  // namespace tdr::bench

int main() { tdr::bench::Main(); }
