#include "core/two_tier.h"

#include <gtest/gtest.h>

#include <optional>

namespace tdr {
namespace {

TwoTierSystem::Options SmallOptions() {
  TwoTierSystem::Options o;
  o.num_base = 2;
  o.num_mobile = 2;
  o.db_size = 32;
  o.action_time = SimTime::Millis(10);
  o.seed = 11;
  return o;
}

// Object ids by owner under RoundRobin over bases {0,1}: even -> base 0,
// odd -> base 1.
constexpr ObjectId kAccount = 4;  // owned by base 0

class TwoTierTest : public ::testing::Test {
 protected:
  TwoTierTest() : sys_(SmallOptions()) {}

  NodeId MobileA() const { return 2; }
  NodeId MobileB() const { return 3; }

  TwoTierSystem sys_;
};

TEST_F(TwoTierTest, MobilesStartDisconnected) {
  EXPECT_FALSE(sys_.mobile(MobileA()).connected());
  EXPECT_FALSE(sys_.mobile(MobileB()).connected());
  EXPECT_TRUE(sys_.cluster().node(0)->connected());
  EXPECT_TRUE(sys_.cluster().node(1)->connected());
}

TEST_F(TwoTierTest, TentativeUpdateVisibleLocallyOnly) {
  std::optional<TxnResult> tentative;
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(), Program({Op::Add(kAccount, 100)}),
                      AcceptAlways(),
                      [&](const TxnResult& r) { tentative = r; }, nullptr)
                  .ok());
  sys_.sim().Run();
  ASSERT_TRUE(tentative.has_value());
  EXPECT_EQ(tentative->outcome, TxnOutcome::kCommitted);
  // "If the mobile node queries this data it sees the tentative values."
  MobileNode& m = sys_.mobile(MobileA());
  EXPECT_TRUE(m.HasTentative(kAccount));
  EXPECT_EQ(m.Read(kAccount).value().AsScalar(), 100);
  EXPECT_EQ(m.PendingCount(), 1u);
  // The master copy is untouched while disconnected.
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      0);
}

TEST_F(TwoTierTest, ReconnectReprocessesAndConverges) {
  std::optional<FinalOutcome> final;
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(), Program({Op::Add(kAccount, 100)}),
                      AcceptAlways(), nullptr,
                      [&](const FinalOutcome& o) { final = o; })
                  .ok());
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->accepted);
  EXPECT_EQ(final->base_result.outcome, TxnOutcome::kCommitted);
  // Base tier holds the update and is internally consistent.
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      100);
  EXPECT_TRUE(sys_.BaseTierConverged());
  // The mobile's master-version store was refreshed via slave updates.
  EXPECT_EQ(sys_.cluster()
                .node(MobileA())
                ->store()
                .GetUnchecked(kAccount)
                .AsScalar(),
            100);
  // Tentative state is gone; reads now see the master version.
  EXPECT_FALSE(sys_.mobile(MobileA()).HasTentative(kAccount));
  EXPECT_EQ(sys_.mobile(MobileA()).PendingCount(), 0u);
  EXPECT_EQ(sys_.base_committed(), 1u);
}

TEST_F(TwoTierTest, CheckbookOverdraftRejectedNoSystemDelusion) {
  // The paper's running example: a $1,000 joint account, two checkbooks.
  // Both spouses write a $600 check while disconnected. Both tentative
  // transactions commit locally; at the bank, the first clears and the
  // second bounces — and the bank's books never go inconsistent.
  sys_.SubmitBase(0, Program({Op::Write(kAccount, 1000)}), nullptr);
  sys_.sim().Run();
  auto withdraw = Program({Op::Subtract(kAccount, 600)});
  auto no_overdraft = ScalarAtLeast(kAccount, 0);
  std::optional<FinalOutcome> out_a, out_b;
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), withdraw, no_overdraft,
                                   nullptr,
                                   [&](const FinalOutcome& o) { out_a = o; })
                  .ok());
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileB(), withdraw, no_overdraft,
                                   nullptr,
                                   [&](const FinalOutcome& o) { out_b = o; })
                  .ok());
  sys_.sim().Run();
  // The mobiles never connected after the deposit, so their best-known
  // master version is still $0 and the tentative balance reads -$600 —
  // exactly the "books inconsistent with the bank's books" situation.
  EXPECT_EQ(sys_.mobile(MobileA()).Read(kAccount).value().AsScalar(),
            -600);
  // Reconnect A first, then B.
  sys_.Connect(MobileA());
  sys_.sim().Run();
  sys_.Connect(MobileB());
  sys_.sim().Run();
  ASSERT_TRUE(out_a.has_value());
  ASSERT_TRUE(out_b.has_value());
  EXPECT_TRUE(out_a->accepted);
  EXPECT_FALSE(out_b->accepted);
  EXPECT_NE(out_b->reason.find("below floor"), std::string::npos);
  // Master state: exactly one withdrawal applied. No delusion.
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      400);
  EXPECT_TRUE(sys_.BaseTierConverged());
  // base_committed counts reprocessed tentative txns only (the deposit
  // went through SubmitBase): just the first withdrawal.
  EXPECT_EQ(sys_.base_committed(), 1u);
  EXPECT_EQ(sys_.base_rejected(), 1u);
}

TEST_F(TwoTierTest, CommutativeTransactionsNeverReconcile) {
  // §7 property 5: "If all transactions commute, there are no
  // reconciliations." Many commutative updates from both mobiles while
  // disconnected; every one must be accepted and the final balance
  // exact.
  std::int64_t expected = 0;
  int finals = 0, rejected = 0;
  for (int i = 1; i <= 10; ++i) {
    for (NodeId m : {MobileA(), MobileB()}) {
      std::int64_t delta = (m == MobileA() ? i : -i) * 5;
      expected += delta;
      ASSERT_TRUE(sys_
                      .SubmitTentative(m, Program({Op::Add(kAccount, delta)}),
                                       AcceptAlways(), nullptr,
                                       [&](const FinalOutcome& o) {
                                         ++finals;
                                         if (!o.accepted) ++rejected;
                                       })
                      .ok());
    }
  }
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.Connect(MobileB());
  sys_.sim().Run();
  EXPECT_EQ(finals, 20);
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      expected);
  EXPECT_TRUE(sys_.BaseTierConverged());
}

TEST_F(TwoTierTest, PriceQuoteRejectedWhenPriceRose) {
  // "If the price of an item has increased by a large amount ... the
  // salesman's price quote must be reconciled with the customer."
  const ObjectId kPrice = 6;  // owned by base 0
  sys_.SubmitBase(0, Program({Op::Write(kPrice, 100)}), nullptr);
  sys_.sim().Run();
  // Let the mobile learn price=100, then disconnect again.
  sys_.Connect(MobileA());
  sys_.sim().Run();
  sys_.Disconnect(MobileA());
  ASSERT_EQ(sys_.cluster()
                .node(MobileA())
                ->store()
                .GetUnchecked(kPrice)
                .AsScalar(),
            100);
  // Salesman quotes at the tentative price (touch the object so the
  // final values are comparable).
  std::optional<FinalOutcome> final;
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(kPrice, 0)}),
                                   NoWorseThanTentative(kPrice), nullptr,
                                   [&](const FinalOutcome& o) { final = o; })
                  .ok());
  sys_.sim().Run();
  // Meanwhile headquarters raises the price.
  sys_.SubmitBase(0, Program({Op::Write(kPrice, 150)}), nullptr);
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  ASSERT_TRUE(final.has_value());
  EXPECT_FALSE(final->accepted);
  EXPECT_NE(final->reason.find("exceeds tentative"), std::string::npos);
  // Master price unchanged by the rejected quote.
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kPrice).AsScalar(),
      150);
}

TEST_F(TwoTierTest, ScopeRuleRejectsOtherMobilesObjects) {
  // Object mastered at mobile B is out of scope for mobile A.
  sys_.SetMobileMaster(8, MobileB());
  Status s = sys_.SubmitTentative(MobileA(), Program({Op::Add(8, 1)}),
                                  AcceptAlways(), nullptr, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("scope rule"), std::string::npos);
}

TEST_F(TwoTierTest, MobileMasteredObjectWithinScope) {
  // "A mobile node may be the master of some data items." The base
  // transaction executes at the mobile master (connected during the
  // exchange) and propagates to the base tier.
  sys_.SetMobileMaster(8, MobileA());
  std::optional<FinalOutcome> final;
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(8, 5)}),
                                   AcceptAlways(), nullptr,
                                   [&](const FinalOutcome& o) { final = o; })
                  .ok());
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->accepted);
  // The master copy lives at the mobile; base replicas follow.
  EXPECT_EQ(sys_.cluster()
                .node(MobileA())
                ->store()
                .GetUnchecked(8)
                .AsScalar(),
            5);
  EXPECT_EQ(sys_.cluster().node(0)->store().GetUnchecked(8).AsScalar(),
            5);
  EXPECT_EQ(sys_.cluster().node(1)->store().GetUnchecked(8).AsScalar(),
            5);
}

TEST_F(TwoTierTest, TentativeTransactionsReprocessInCommitOrder) {
  // Non-commutative writes: last tentative write must be the final
  // master value, so order preservation is observable.
  std::vector<int> accept_order;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        sys_
            .SubmitTentative(MobileA(),
                             Program({Op::Write(kAccount, i * 10)}),
                             AcceptAlways(), nullptr,
                             [&accept_order, i](const FinalOutcome& o) {
                               EXPECT_TRUE(o.accepted);
                               accept_order.push_back(i);
                             })
            .ok());
  }
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  EXPECT_EQ(accept_order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      30);
}

TEST_F(TwoTierTest, TentativeWhileConnectedProcessesImmediately) {
  sys_.Connect(MobileA());
  sys_.sim().Run();
  std::optional<FinalOutcome> final;
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(kAccount, 7)}),
                                   AcceptAlways(), nullptr,
                                   [&](const FinalOutcome& o) { final = o; })
                  .ok());
  sys_.sim().Run();
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->accepted);
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      7);
}

TEST_F(TwoTierTest, SubmitTentativeOnBaseNodeFails) {
  Status s = sys_.SubmitTentative(0, Program({Op::Add(kAccount, 1)}),
                                  AcceptAlways(), nullptr, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TwoTierTest, ConcurrentMobileDrainsStayConsistent) {
  // Both mobiles reconnect at the same instant with interleaving base
  // transactions (including potential deadlocks, which are retried).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys_
                    .SubmitTentative(
                        MobileA(),
                        Program({Op::Add(4, 1), Op::Add(6, 1)}),
                        AcceptAlways(), nullptr, nullptr)
                    .ok());
    ASSERT_TRUE(sys_
                    .SubmitTentative(
                        MobileB(),
                        Program({Op::Add(6, 1), Op::Add(4, 1)}),
                        AcceptAlways(), nullptr, nullptr)
                    .ok());
  }
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.Connect(MobileB());
  sys_.sim().Run();
  EXPECT_EQ(sys_.base_committed(), 10u);
  EXPECT_EQ(sys_.base_rejected(), 0u);
  EXPECT_TRUE(sys_.BaseTierConverged());
  // All 10+10 increments survive (commutative adds, serializable base).
  EXPECT_EQ(sys_.cluster().node(0)->store().GetUnchecked(4).AsScalar(),
            10);
  EXPECT_EQ(sys_.cluster().node(0)->store().GetUnchecked(6).AsScalar(),
            10);
}

TEST_F(TwoTierTest, BaseTransactionsFromBaseNodesInterleave) {
  // Connected operation: ordinary lazy-master traffic from base nodes
  // coexists with mobile reprocessing.
  for (int i = 0; i < 4; ++i) {
    sys_.SubmitBase(i % 2, Program({Op::Add(kAccount, 1)}), nullptr);
  }
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(kAccount, 10)}),
                                   AcceptAlways(), nullptr, nullptr)
                  .ok());
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      14);
  EXPECT_TRUE(sys_.BaseTierConverged());
}

TEST_F(TwoTierTest, RejectionCascadesThroughDependentTentatives) {
  // §7: "If the acceptance criteria requires the base and tentative
  // transaction have identical outputs, then subsequent transactions
  // reading tentative results written by T will fail too."
  //
  // T1 reads the account and rewrites it; T2 reads T1's tentative value
  // and rewrites again. The base meanwhile changes the account, so T1's
  // base read differs from its tentative read -> rejected; T1's write
  // therefore never reaches the base, so T2's base read differs from
  // the tentative value it saw -> rejected too.
  std::optional<FinalOutcome> f1, f2;
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(),
                      Program({Op::Read(kAccount), Op::Write(kAccount, 11)}),
                      IdenticalReads(), nullptr,
                      [&](const FinalOutcome& o) { f1 = o; })
                  .ok());
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(),
                      Program({Op::Read(kAccount), Op::Write(kAccount, 22)}),
                      IdenticalReads(), nullptr,
                      [&](const FinalOutcome& o) { f2 = o; })
                  .ok());
  sys_.sim().Run();
  // T2's tentative read saw T1's tentative write.
  EXPECT_EQ(sys_.mobile(MobileA()).Read(kAccount).value().AsScalar(),
            22);
  // The base changes the account while the mobile is away.
  sys_.SubmitBase(0, Program({Op::Write(kAccount, 500)}), nullptr);
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  ASSERT_TRUE(f1 && f2);
  EXPECT_FALSE(f1->accepted);
  EXPECT_FALSE(f2->accepted);  // the cascade
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      500);  // neither tentative write survived
}

TEST_F(TwoTierTest, NoInterferenceMeansDependentChainAccepted) {
  // Control for the cascade: with no base interference, T1's base read
  // matches, its write lands, and T2's base read then matches the
  // tentative value it saw — the whole chain clears.
  std::optional<FinalOutcome> f1, f2;
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(),
                      Program({Op::Read(kAccount), Op::Write(kAccount, 11)}),
                      IdenticalReads(), nullptr,
                      [&](const FinalOutcome& o) { f1 = o; })
                  .ok());
  ASSERT_TRUE(sys_
                  .SubmitTentative(
                      MobileA(),
                      Program({Op::Read(kAccount), Op::Write(kAccount, 22)}),
                      IdenticalReads(), nullptr,
                      [&](const FinalOutcome& o) { f2 = o; })
                  .ok());
  sys_.sim().Run();
  sys_.Connect(MobileA());
  sys_.sim().Run();
  ASSERT_TRUE(f1 && f2);
  EXPECT_TRUE(f1->accepted);
  EXPECT_TRUE(f2->accepted);
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      22);
}

TEST_F(TwoTierTest, LocalTransactionCommitsWhileDisconnected) {
  // §7: "Local transactions that read and write only local data can be
  // designed in any way you like." Mobile-mastered data updates commit
  // immediately (durably) at the mobile, even offline.
  sys_.SetMobileMaster(8, MobileA());
  std::optional<TxnResult> result;
  ASSERT_TRUE(sys_
                  .SubmitLocal(MobileA(), Program({Op::Add(8, 5)}),
                               [&](const TxnResult& r) { result = r; })
                  .ok());
  sys_.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, TxnOutcome::kCommitted);
  // Committed at the mobile master...
  EXPECT_EQ(sys_.cluster()
                .node(MobileA())
                ->store()
                .GetUnchecked(8)
                .AsScalar(),
            5);
  // ...but not yet replicated (the mobile is offline).
  EXPECT_EQ(sys_.cluster().node(0)->store().GetUnchecked(8).AsScalar(),
            0);
  // Reconnect flushes the queued slave refreshes.
  sys_.Connect(MobileA());
  sys_.sim().Run();
  EXPECT_EQ(sys_.cluster().node(0)->store().GetUnchecked(8).AsScalar(),
            5);
  EXPECT_EQ(sys_.cluster().node(1)->store().GetUnchecked(8).AsScalar(),
            5);
}

// A local transaction's refreshes ride lazy master's shipping plane:
// one batch per other node, shipped at commit into the offline mobile's
// outbox, applied (and counted) by lazy master once it reconnects.
TEST_F(TwoTierTest, LocalTransactionRefreshesShipThroughLazyMaster) {
  sys_.SetMobileMaster(8, MobileA());
  const BatchShipper* shipper = sys_.lazy_master().batch_shipper();
  ASSERT_TRUE(
      sys_.SubmitLocal(MobileA(), Program({Op::Add(8, 5)}), nullptr).ok());
  sys_.sim().Run();
  const std::uint64_t others = sys_.cluster().size() - 1;
  EXPECT_EQ(shipper->batches_shipped(), others);
  EXPECT_EQ(shipper->PendingUpdates(), 0u);
  EXPECT_EQ(sys_.cluster().metrics().Get("replica.applied"), 0u);
  sys_.Connect(MobileA());
  sys_.Connect(MobileB());
  sys_.sim().Run();
  for (NodeId id = 0; id < sys_.cluster().size(); ++id) {
    EXPECT_EQ(
        sys_.cluster().node(id)->store().GetUnchecked(8).AsScalar(), 5)
        << "node " << id;
  }
  EXPECT_EQ(sys_.cluster().metrics().Get("replica.applied"), others);
}

TEST_F(TwoTierTest, LocalTransactionScopeEnforced) {
  // Touching base-mastered data is not "local".
  Status s = sys_.SubmitLocal(MobileA(), Program({Op::Add(kAccount, 1)}),
                              nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // And base nodes cannot submit local transactions.
  EXPECT_EQ(sys_.SubmitLocal(0, Program({Op::Add(8, 1)}), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TwoTierTest, LocalTransactionRefusesTentativeData) {
  // "They cannot read or write any tentative data because that would
  // make them tentative."
  sys_.SetMobileMaster(8, MobileA());
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(8, 1)}),
                                   AcceptAlways(), nullptr, nullptr)
                  .ok());
  sys_.sim().Run();
  ASSERT_TRUE(sys_.mobile(MobileA()).HasTentative(8));
  Status s = sys_.SubmitLocal(MobileA(), Program({Op::Add(8, 1)}), nullptr);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(TwoTierTest, DurabilityOnlyAtBaseCommit) {
  // §7 property 3: tentative commits are not durable; base commits are.
  ASSERT_TRUE(sys_
                  .SubmitTentative(MobileA(), Program({Op::Add(kAccount, 50)}),
                                   AcceptAlways(), nullptr, nullptr)
                  .ok());
  sys_.sim().Run();
  // Simulate "losing" the tentative state before ever reconnecting: the
  // base tier shows nothing happened.
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      0);
  sys_.Connect(MobileA());
  sys_.sim().Run();
  EXPECT_EQ(
      sys_.cluster().node(0)->store().GetUnchecked(kAccount).AsScalar(),
      50);
}

}  // namespace
}  // namespace tdr
