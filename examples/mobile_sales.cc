// Mobile sales force: the §7 acceptance-criteria examples end to end.
//
// A traveling salesman's laptop holds a replica of the product catalog
// and order book. Disconnected, he:
//   * quotes prices   — acceptance: "the price quote can not exceed the
//                       tentative quote";
//   * reserves stock  — acceptance: "the item must not go out of stock"
//                       (inventory must stay >= 0);
//   * logs orders     — commutative appends, always acceptable.
//
// Headquarters changes prices and inventory while he is away; the base
// re-execution of his tentative transactions reveals which deals hold.

#include <cstdio>
#include <string>

#include "core/two_tier.h"

using namespace tdr;

namespace {

// Catalog layout.
constexpr ObjectId kWidgetPrice = 0;
constexpr ObjectId kWidgetStock = 1;
constexpr ObjectId kOrderLog = 2;

void Report(const char* what, const FinalOutcome& o) {
  std::printf("  %-28s %s%s%s\n", what,
              o.accepted ? "ACCEPTED" : "REJECTED",
              o.accepted ? "" : " — ", o.accepted ? "" : o.reason.c_str());
}

}  // namespace

int main() {
  TwoTierSystem::Options options;
  options.num_base = 2;   // HQ database servers
  options.num_mobile = 1; // the salesman's laptop
  options.db_size = 8;
  TwoTierSystem sys(options);
  const NodeId kLaptop = 2;

  // HQ sets up the catalog: widgets cost $90, 3 in stock.
  sys.SubmitBase(0, Program({Op::Write(kWidgetPrice, 90),
                             Op::Write(kWidgetStock, 3)}),
                 nullptr);
  sys.sim().Run();

  // The laptop syncs once in the office, then hits the road.
  sys.Connect(kLaptop);
  sys.sim().Run();
  sys.Disconnect(kLaptop);
  std::printf("laptop synced: price=$%lld stock=%lld, now offline\n",
              (long long)sys.mobile(kLaptop)
                  .Read(kWidgetPrice)
                  .value()
                  .AsScalar(),
              (long long)sys.mobile(kLaptop)
                  .Read(kWidgetStock)
                  .value()
                  .AsScalar());

  // On the road: quote a price (touch the price so base/tentative final
  // values are comparable), reserve 2 widgets, log the order (append
  // commutes with everything, so it can never be rejected).
  sys.SubmitTentative(kLaptop, Program({Op::Add(kWidgetPrice, 0)}),
                      NoWorseThanTentative(kWidgetPrice), nullptr,
                      [](const FinalOutcome& o) {
                        Report("price quote ($90):", o);
                      });
  sys.SubmitTentative(kLaptop, Program({Op::Subtract(kWidgetStock, 2)}),
                      ScalarAtLeast(kWidgetStock, 0), nullptr,
                      [](const FinalOutcome& o) {
                        Report("reserve 2 widgets:", o);
                      });
  sys.SubmitTentative(kLaptop, Program({Op::Append(kOrderLog, 7001)}),
                      AcceptAlways(), nullptr,
                      [](const FinalOutcome& o) {
                        Report("log order #7001:", o);
                      });
  sys.sim().Run();

  // Meanwhile HQ raises the price and another salesman drains stock.
  sys.SubmitBase(0, Program({Op::Write(kWidgetPrice, 120)}), nullptr);
  sys.SubmitBase(1, Program({Op::Subtract(kWidgetStock, 2)}), nullptr);
  sys.sim().Run();
  std::printf("meanwhile at HQ: price -> $120, stock -> 1\n");

  std::printf("salesman reconnects; the bank-style clearing run says:\n");
  sys.Connect(kLaptop);
  sys.sim().Run();

  const ObjectStore& hq = sys.cluster().node(0)->store();
  std::printf(
      "final HQ state: price=$%lld stock=%lld orders=%s, base tier "
      "converged=%s\n",
      (long long)hq.GetUnchecked(kWidgetPrice).AsScalar(),
      (long long)hq.GetUnchecked(kWidgetStock).AsScalar(),
      hq.GetUnchecked(kOrderLog).value().ToString().c_str(),
      sys.BaseTierConverged() ? "yes" : "no");
  std::printf(
      "\nthe price quote bounced (price rose), the reservation bounced\n"
      "(stock ran out), the commutative order-log append sailed through —\n"
      "and nobody had to reconcile a corrupted database.\n");
  return 0;
}
