// Quickstart: the two-tier replication scheme in ~60 lines of user code.
//
// A laptop (mobile node) edits an account while offline; on reconnect
// its tentative transaction is re-executed at the base tier as a real,
// serializable transaction and either accepted or rejected.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/two_tier.h"

using namespace tdr;

int main() {
  // 2 always-connected base nodes + 1 mostly-disconnected mobile node,
  // replicating a 16-object database. Object ids are dense integers.
  TwoTierSystem::Options options;
  options.num_base = 2;
  options.num_mobile = 1;
  options.db_size = 16;
  TwoTierSystem sys(options);
  const NodeId kLaptop = 2;   // first mobile id = num_base
  const ObjectId kAccount = 0;

  // Seed the account with $500 via an ordinary base transaction
  // (connected operation = plain lazy-master replication).
  sys.SubmitBase(0, Program({Op::Write(kAccount, 500)}), nullptr);
  sys.sim().Run();

  // The laptop is offline but keeps working: withdraw $200, tentatively.
  // Acceptance criterion: the balance must never go negative.
  Status submitted = sys.SubmitTentative(
      kLaptop, Program({Op::Subtract(kAccount, 200)}),
      ScalarAtLeast(kAccount, 0),
      /*on_tentative=*/
      [](const TxnResult& r) {
        std::printf("[laptop ] tentative commit at t=%s\n",
                    r.end_time.ToString().c_str());
      },
      /*on_final=*/
      [](const FinalOutcome& o) {
        std::printf("[bank   ] base transaction %s%s%s\n",
                    o.accepted ? "ACCEPTED" : "REJECTED",
                    o.accepted ? "" : ": ", o.reason.c_str());
      });
  if (!submitted.ok()) {
    std::printf("submit failed: %s\n", submitted.ToString().c_str());
    return 1;
  }
  sys.sim().Run();

  // Offline, the laptop already sees its own tentative value...
  std::printf("[laptop ] local (tentative) balance: $%lld\n",
              (long long)sys.mobile(kLaptop)
                  .Read(kAccount)
                  .value()
                  .AsScalar());
  // ...but the bank's master copy is untouched. The laptop never saw the
  // deposit either — its replica is stale, which is fine.
  std::printf("[bank   ] master balance while laptop offline: $%lld\n",
              (long long)sys.cluster()
                  .node(0)
                  ->store()
                  .GetUnchecked(kAccount)
                  .AsScalar());

  // Reconnect: replica refresh + reprocessing happen automatically.
  sys.Connect(kLaptop);
  sys.sim().Run();

  std::printf("[bank   ] master balance after reconnect: $%lld\n",
              (long long)sys.cluster()
                  .node(0)
                  ->store()
                  .GetUnchecked(kAccount)
                  .AsScalar());
  std::printf("[laptop ] refreshed balance: $%lld (tentative versions: "
              "%zu)\n",
              (long long)sys.mobile(kLaptop)
                  .Read(kAccount)
                  .value()
                  .AsScalar(),
              sys.mobile(kLaptop).PendingCount());
  std::printf("base tier converged: %s\n",
              sys.BaseTierConverged() ? "yes" : "no");
  return 0;
}
