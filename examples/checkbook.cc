// The paper's running example, executed under three replication designs.
//
// "Consider a joint checking account you share with your spouse. Suppose
// it has $1,000 in it. This account is replicated in three places: your
// checkbook, your spouse's checkbook, and the bank's ledger."
//
// Both spouses write checks totaling $1,000 each while out of contact.
//  * EAGER replication simply refuses while anyone is disconnected.
//  * LAZY GROUP lets both commit, then discovers the conflict during
//    replica exchange: reconciliation, diverged books.
//  * TWO-TIER treats the checks as tentative transactions; the bank
//    (master) clears what fits and bounces the rest. The ledger never
//    lies.

#include <cstdio>

#include "core/two_tier.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/repair.h"

using namespace tdr;

namespace {

constexpr ObjectId kAccount = 0;

void RunEager() {
  std::printf("--- eager replication -------------------------------\n");
  Cluster::Options copts;
  copts.num_nodes = 3;  // bank, you, spouse
  copts.db_size = 4;
  Cluster cluster(copts);
  EagerGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(kAccount, 1000)}), nullptr);
  cluster.sim().Run();

  cluster.net().SetConnected(2, false);  // spouse takes the checkbook out
  scheme.Submit(1, Program({Op::Subtract(kAccount, 1000)}),
                [](const TxnResult& r) {
                  std::printf("your $1000 check: %s\n",
                              std::string(TxnOutcomeToString(r.outcome))
                                  .c_str());
                });
  cluster.sim().Run();
  std::printf("eager can't update while a replica is away — safe but "
              "useless on the road.\n\n");
}

void RunLazyGroup() {
  std::printf("--- lazy group replication --------------------------\n");
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 4;
  Cluster cluster(copts);
  LazyGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(kAccount, 1000)}), nullptr);
  cluster.sim().Run();

  // Both spouses disconnect and each writes checks for the full $1000.
  cluster.net().SetConnected(1, false);
  cluster.net().SetConnected(2, false);
  // You spend it all; your spouse spends $950 of it.
  scheme.Submit(1, Program({Op::Write(kAccount, 0)}), nullptr);
  scheme.Submit(2, Program({Op::Write(kAccount, 50)}), nullptr);
  cluster.sim().Run();
  std::printf("while disconnected, both books committed ~$1000 of checks "
              "against the same $1000.\n");

  cluster.net().SetConnected(1, true);
  cluster.net().SetConnected(2, true);
  cluster.sim().Run();
  std::printf("after exchange: reconciliations needed = %llu, books "
              "agree = %s\n",
              (unsigned long long)scheme.reconciliations(),
              cluster.Converged() ? "yes" : "NO");
  std::printf("lazy group committed both, then punted the mess to a "
              "human.\n");
  // The "human" (a DBA with a rulebook): repair the delusion by
  // installing one winner everywhere. The bank's version wins.
  DivergenceRepair repair(&cluster);
  auto report = repair.Execute(SitePriorityRule());
  std::printf("manual reconciliation: %llu object(s) repaired, books now "
              "agree = %s — but one spouse's checks silently vanished.\n\n",
              (unsigned long long)report.objects_diverged,
              cluster.Converged() ? "yes" : "NO");
}

void RunTwoTier() {
  std::printf("--- two-tier replication ----------------------------\n");
  TwoTierSystem::Options topts;
  topts.num_base = 1;   // the bank
  topts.num_mobile = 2; // two checkbooks
  topts.db_size = 4;
  TwoTierSystem sys(topts);
  const NodeId kYou = 1, kSpouse = 2;
  sys.SubmitBase(0, Program({Op::Write(kAccount, 1000)}), nullptr);
  sys.sim().Run();

  auto check = [&](NodeId who, const char* name, std::int64_t amount) {
    sys.SubmitTentative(
        who, Program({Op::Subtract(kAccount, amount)}),
        ScalarAtLeast(kAccount, 0), nullptr,
        [name, amount](const FinalOutcome& o) {
          std::printf("%s's $%lld check: %s%s%s\n", name,
                      (long long)amount,
                      o.accepted ? "CLEARED" : "BOUNCED", o.accepted ? ""
                                                                     : " (",
                      o.accepted ? "" : (o.reason + ")").c_str());
        });
  };
  check(kYou, "you", 600);
  check(kYou, "you", 400);
  check(kSpouse, "spouse", 700);
  check(kSpouse, "spouse", 300);
  sys.sim().Run();
  std::printf("four tentative checks written offline, $2000 total against "
              "$1000.\n");

  sys.Connect(kYou);
  sys.sim().Run();
  sys.Connect(kSpouse);
  sys.sim().Run();
  std::printf("bank's final balance: $%lld (never negative, never "
              "deluded)\n",
              (long long)sys.cluster()
                  .node(0)
                  ->store()
                  .GetUnchecked(kAccount)
                  .AsScalar());
}

}  // namespace

int main() {
  RunEager();
  RunLazyGroup();
  RunTwoTier();
  return 0;
}
