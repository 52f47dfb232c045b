// Notes-style gossip: the §6 convergence systems, hands on.
//
// Three disconnected offices keep replicas of a shared discussion
// database (Lotus Notes style). They work independently, then gossip
// pairwise. The demo walks through:
//   1. timestamped APPEND — everything converges, nothing is lost;
//   2. timestamped REPLACE — converges, but concurrent edits lose
//      updates (the §6 lost-update problem);
//   3. version vectors — the same race, but DETECTED and resolved by an
//      Oracle-7-style rule chosen from the twelve-rule catalogue;
//   4. commutative deltas — the §6 trick that needs no rules at all.

#include <cstdio>

#include "replication/convergence.h"

using namespace tdr;

namespace {

void Banner(const char* title) { std::printf("\n==== %s ====\n", title); }

constexpr ObjectId kThread = 0;   // discussion thread (append list)
constexpr ObjectId kTitle = 1;    // document title (replace)
constexpr ObjectId kBudget = 2;   // running total (deltas)

}  // namespace

int main() {
  Banner("1. timestamped append (the Notes discussion thread)");
  {
    GossipCluster offices(3, 4);
    // Note ids encode office and sequence; appends happen concurrently.
    offices.replica(0).LocalAppend(kThread, 101);
    offices.replica(1).LocalAppend(kThread, 201);
    offices.replica(2).LocalAppend(kThread, 301);
    offices.replica(0).LocalAppend(kThread, 102);
    std::uint64_t shipped = offices.ConvergeOps();
    std::printf("gossiped %llu ops; every office sees the thread as %s\n",
                (unsigned long long)shipped,
                offices.replica(2)
                    .store()
                    .GetUnchecked(kThread)
                    .value().ToString()
                    .c_str());
    std::printf("converged=%s, all four notes survive, in timestamp "
                "order.\n",
                offices.Converged() ? "yes" : "NO");
  }

  Banner("2. timestamped replace (last writer wins, updates lost)");
  {
    GossipCluster offices(3, 4);
    offices.replica(0).LocalReplace(kTitle, Value(111));  // "draft-A"
    offices.replica(1).LocalReplace(kTitle, Value(222));  // "draft-B"
    std::uint64_t conflicts = offices.ConvergeState(TimePriorityRule());
    std::printf("conflicts=%llu; surviving title: %lld — the other edit "
                "is just GONE.\n",
                (unsigned long long)conflicts,
                (long long)offices.replica(0)
                    .store()
                    .GetUnchecked(kTitle)
                    .AsScalar());
  }

  Banner("3. version vectors + the Oracle rule catalogue");
  {
    std::printf("the twelve rules: ");
    for (const std::string& name : RuleCatalogue()) {
      std::printf("%s ", name.c_str());
    }
    std::printf("\n");
    GossipCluster offices(2, 4);
    offices.replica(0).LocalReplaceAdd(kBudget, 70);
    offices.replica(1).LocalReplaceAdd(kBudget, 30);
    // Version vectors detect the race; the 'additive' rule folds both
    // branches instead of dropping one.
    std::uint64_t conflicts =
        offices.ConvergeState(RuleByName("additive"));
    std::printf("conflicts detected=%llu; additive merge keeps both "
                "branches: budget = %lld\n",
                (unsigned long long)conflicts,
                (long long)offices.replica(0)
                    .store()
                    .GetUnchecked(kBudget)
                    .AsScalar());
  }

  Banner("4. commutative deltas (no rules needed)");
  {
    GossipCluster offices(3, 4);
    offices.replica(0).LocalDelta(kBudget, 70);
    offices.replica(1).LocalDelta(kBudget, 30);
    offices.replica(2).LocalDelta(kBudget, -25);
    offices.ConvergeOps();
    std::printf("budget everywhere: %lld (= 70 + 30 - 25), zero "
                "conflicts by construction.\n",
                (long long)offices.replica(1)
                    .store()
                    .GetUnchecked(kBudget)
                    .AsScalar());
    std::printf(
        "\n§6's ladder, climbed: convergence is easy; convergence that\n"
        "keeps every update takes commutative operations — which is the\n"
        "design rule the two-tier scheme asks of its transactions.\n");
  }
  return 0;
}
