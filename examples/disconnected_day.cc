// A day in the life of a two-tier sales fleet — the full §7 machinery
// on one timeline.
//
// Cast: 2 base servers at headquarters; 3 salespeople with laptops.
// The database: a shared order counter, per-salesperson quota objects
// (MASTERED AT THE LAPTOPS — §7's mobile-mastered data), product stock,
// and an order log.
//
// The day: laptops sync at 9:00, go offline, work all day (tentative
// orders against stock, LOCAL quota bookkeeping), and reconnect in the
// evening. Headquarters trades all day too. We watch availability,
// rejections, and convergence through the whole cycle.

#include <cstdio>

#include "core/two_tier.h"

using namespace tdr;

namespace {

constexpr ObjectId kStock = 0;     // product stock, base-mastered
constexpr ObjectId kOrderLog = 1;  // append-only order log, base-mastered
// Objects 2..4 become the laptops' quota counters (mobile-mastered).

const char* kNames[] = {"ana", "bo", "cy"};

SimTime Hour(double h) { return SimTime::Seconds(h * 3600); }

}  // namespace

int main() {
  TwoTierSystem::Options options;
  options.num_base = 2;
  options.num_mobile = 3;
  options.db_size = 8;
  options.action_time = SimTime::Millis(5);
  TwoTierSystem sys(options);
  auto& sim = sys.sim();

  // Quota objects are mastered at the laptops.
  for (std::uint32_t m = 0; m < 3; ++m) {
    sys.SetMobileMaster(2 + m, 2 + m);
  }
  // 08:00 — headquarters stocks the shelves: 10 units.
  sim.ScheduleAt(Hour(8), [&] {
    sys.SubmitBase(0, Program({Op::Write(kStock, 10)}), nullptr);
    std::printf("08:00  HQ stocks 10 units\n");
  });
  // 09:00 — everyone syncs in the office, then hits the road.
  sim.ScheduleAt(Hour(9), [&] {
    for (NodeId m = 2; m < 5; ++m) sys.Connect(m);
    std::printf("09:00  laptops sync (stock=10 everywhere)\n");
  });
  sim.ScheduleAt(Hour(9.5), [&] {
    for (NodeId m = 2; m < 5; ++m) sys.Disconnect(m);
    std::printf("09:30  laptops offline for the day\n");
  });

  // During the day: each salesperson books 4 units tentatively (12
  // total against 10 in stock — somebody's deal will bounce), logs the
  // order, and tracks quota via LOCAL transactions (their own master
  // data: durable immediately, even offline).
  int rejected = 0, accepted = 0;
  for (std::uint32_t m = 0; m < 3; ++m) {
    NodeId laptop = 2 + m;
    const char* name = kNames[m];
    sim.ScheduleAt(Hour(11 + m), [&, laptop, name] {
      std::printf("%02d:00  %s books 4 units (tentative) + quota "
                  "(local)\n",
                  11 + static_cast<int>(laptop) - 2, name);
      sys.SubmitTentative(
          laptop,
          Program({Op::Subtract(kStock, 4),
                   Op::Append(kOrderLog, 1000 + laptop)}),
          ScalarAtLeast(kStock, 0), nullptr,
          [&, name](const FinalOutcome& o) {
            (o.accepted ? accepted : rejected) += 1;
            std::printf("        [evening clearing] %s's order %s%s%s\n",
                        name, o.accepted ? "CLEARED" : "BOUNCED",
                        o.accepted ? "" : ": ", o.reason.c_str());
          });
      sys.SubmitLocal(laptop, Program({Op::Add(laptop, 4)}), nullptr);
    });
  }

  // 14:00 — a walk-in customer at HQ buys 1 unit (base transaction,
  // connected operation keeps working all day).
  sim.ScheduleAt(Hour(14), [&] {
    sys.SubmitBase(1, Program({Op::Subtract(kStock, 1),
                               Op::Append(kOrderLog, 999)}),
                   [](const TxnResult& r) {
                     std::printf("14:00  HQ walk-in sale: %s\n",
                                 std::string(TxnOutcomeToString(r.outcome))
                                     .c_str());
                   });
  });

  // 18:00-18:30 — the fleet reconnects one by one; tentative orders are
  // reprocessed in commit order, quota updates stream in as slave
  // refreshes.
  for (std::uint32_t m = 0; m < 3; ++m) {
    sim.ScheduleAt(Hour(18 + 0.25 * m), [&, m] {
      std::printf("%02d:%02d  %s reconnects\n", 18,
                  static_cast<int>(15 * m), kNames[m]);
      sys.Connect(2 + m);
    });
  }

  sim.Run();

  const ObjectStore& hq = sys.cluster().node(0)->store();
  std::printf("\n===== end of day =====\n");
  std::printf("orders accepted/rejected: %d/%d\n", accepted, rejected);
  std::printf("stock remaining at HQ: %lld\n",
              (long long)hq.GetUnchecked(kStock).AsScalar());
  std::printf("order log: %s\n",
              hq.GetUnchecked(kOrderLog).value().ToString().c_str());
  for (std::uint32_t m = 0; m < 3; ++m) {
    std::printf("%s's quota (mastered on the laptop, visible at HQ): "
                "%lld\n",
                kNames[m],
                (long long)hq.GetUnchecked(2 + m).AsScalar());
  }
  std::printf("base tier converged: %s — the books balance, the bounced "
              "deal is a phone call, not a database repair.\n",
              sys.BaseTierConverged() ? "yes" : "NO");
  return 0;
}
