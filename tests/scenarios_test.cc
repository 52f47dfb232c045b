#include "workload/scenarios.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/two_tier.h"
#include "replication/cluster.h"
#include "replication/lazy_master.h"

namespace tdr {
namespace {

TpcbWorkload::Options SmallBank() {
  TpcbWorkload::Options o;
  o.branches = 2;
  o.tellers_per_branch = 3;
  o.accounts_per_branch = 10;
  o.history_partitions = 4;
  return o;
}

TEST(TpcbWorkloadTest, IdLayoutIsDenseAndDisjoint) {
  TpcbWorkload bank(SmallBank());
  EXPECT_EQ(bank.db_size(), 2u + 6u + 20u + 4u);
  EXPECT_EQ(bank.BranchId(0), 0u);
  EXPECT_EQ(bank.BranchId(1), 1u);
  EXPECT_EQ(bank.TellerId(0), 2u);
  EXPECT_EQ(bank.TellerId(5), 7u);
  EXPECT_EQ(bank.AccountId(0), 8u);
  EXPECT_EQ(bank.AccountId(19), 27u);
  EXPECT_EQ(bank.HistoryId(0), 28u);
  EXPECT_EQ(bank.HistoryId(3), 31u);
}

TEST(TpcbWorkloadTest, BranchMapping) {
  TpcbWorkload bank(SmallBank());
  EXPECT_EQ(bank.BranchOfTeller(0), 0u);
  EXPECT_EQ(bank.BranchOfTeller(2), 0u);
  EXPECT_EQ(bank.BranchOfTeller(3), 1u);
  EXPECT_EQ(bank.BranchOfAccount(9), 0u);
  EXPECT_EQ(bank.BranchOfAccount(10), 1u);
}

TEST(TpcbWorkloadTest, TransactionsAreFullyCommutative) {
  TpcbWorkload bank(SmallBank());
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Program p = bank.NextTransaction(rng, i);
    EXPECT_TRUE(p.IsFullyCommutative());
    EXPECT_EQ(p.size(), 4u);
  }
}

TEST(TpcbWorkloadTest, TransactionIsInternallyConsistent) {
  TpcbWorkload bank(SmallBank());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Program p = bank.NextTransaction(rng, i);
    // Ops: account add, teller add, branch add, history append — the
    // same amount everywhere, account/teller in the same branch.
    const Op& acct = p.op(0);
    const Op& teller = p.op(1);
    const Op& branch = p.op(2);
    const Op& hist = p.op(3);
    EXPECT_EQ(acct.type, OpType::kAdd);
    EXPECT_EQ(hist.type, OpType::kAppend);
    EXPECT_EQ(acct.operand, teller.operand);
    EXPECT_EQ(teller.operand, branch.operand);
    EXPECT_NE(acct.operand, 0);
    std::uint32_t account = static_cast<std::uint32_t>(
        acct.oid - bank.AccountId(0));
    std::uint32_t teller_idx =
        static_cast<std::uint32_t>(teller.oid - bank.TellerId(0));
    EXPECT_EQ(bank.BranchOfAccount(account),
              static_cast<std::uint32_t>(branch.oid));
    EXPECT_EQ(bank.BranchOfTeller(teller_idx),
              static_cast<std::uint32_t>(branch.oid));
    EXPECT_EQ(hist.operand, i);
  }
}

// Sums balances in an object store over the bank's id ranges.
struct BankSums {
  std::int64_t accounts = 0, tellers = 0, branches = 0;
  std::size_t history_records = 0;
};
BankSums SumBank(const TpcbWorkload& bank, const ObjectStore& store) {
  BankSums sums;
  for (std::uint32_t b = 0; b < bank.branches(); ++b) {
    sums.branches += store.GetUnchecked(bank.BranchId(b)).AsScalar();
  }
  for (std::uint32_t t = 0; t < bank.tellers(); ++t) {
    sums.tellers += store.GetUnchecked(bank.TellerId(t)).AsScalar();
  }
  for (std::uint32_t a = 0; a < bank.accounts(); ++a) {
    sums.accounts += store.GetUnchecked(bank.AccountId(a)).AsScalar();
  }
  for (std::uint32_t h = 0; h < 4; ++h) {
    sums.history_records +=
        store.GetUnchecked(bank.HistoryId(h)).AsList().size();
  }
  return sums;
}

TEST(TpcbWorkloadTest, LazyMasterRunPreservesBankInvariant) {
  TpcbWorkload bank(SmallBank());
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = bank.db_size();
  copts.action_time = SimTime::Millis(2);
  copts.seed = 99;
  Cluster cluster(copts);
  std::vector<NodeId> all = {0, 1, 2};
  Ownership own = Ownership::RoundRobin(bank.db_size(), all);
  LazyMasterScheme scheme(&cluster, &own);
  Rng rng = cluster.ForkRng();
  std::uint64_t committed = 0;
  for (int i = 0; i < 150; ++i) {
    NodeId origin = static_cast<NodeId>(rng.UniformInt(3));
    Program p = bank.NextTransaction(rng, i);
    cluster.sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(1000))),
        [&scheme, &committed, origin, p]() {
          scheme.Submit(origin, p, [&committed](const TxnResult& r) {
            if (r.outcome == TxnOutcome::kCommitted) ++committed;
          });
        });
  }
  cluster.sim().Run();
  EXPECT_GT(committed, 100u);
  EXPECT_TRUE(cluster.Converged());
  for (NodeId n = 0; n < 3; ++n) {
    BankSums sums = SumBank(bank, cluster.node(n)->store());
    EXPECT_EQ(sums.accounts, sums.tellers) << "node " << n;
    EXPECT_EQ(sums.tellers, sums.branches) << "node " << n;
    EXPECT_EQ(sums.history_records, committed) << "node " << n;
  }
}

TEST(TpcbWorkloadTest, TwoTierMobileTellersPreserveInvariant) {
  // Mobile tellers (laptops in the field) run the bank's workload as
  // tentative transactions; everything commutes, so nothing is ever
  // rejected and the books balance exactly.
  TpcbWorkload bank(SmallBank());
  TwoTierSystem::Options topts;
  topts.num_base = 2;
  topts.num_mobile = 2;
  topts.db_size = bank.db_size();
  topts.action_time = SimTime::Millis(2);
  TwoTierSystem sys(topts);
  Rng rng = sys.cluster().ForkRng();
  int finals = 0, rejected = 0;
  for (int i = 0; i < 60; ++i) {
    NodeId mobile = 2 + (i % 2);
    ASSERT_TRUE(sys
                    .SubmitTentative(mobile, bank.NextTransaction(rng, i),
                                     AcceptAlways(), nullptr,
                                     [&](const FinalOutcome& o) {
                                       ++finals;
                                       if (!o.accepted) ++rejected;
                                     })
                    .ok());
  }
  sys.sim().Run();
  sys.Connect(2);
  sys.Connect(3);
  sys.sim().Run();
  EXPECT_EQ(finals, 60);
  EXPECT_EQ(rejected, 0);
  EXPECT_TRUE(sys.BaseTierConverged());
  BankSums sums = SumBank(bank, sys.cluster().node(0)->store());
  EXPECT_EQ(sums.accounts, sums.tellers);
  EXPECT_EQ(sums.tellers, sums.branches);
  EXPECT_EQ(sums.history_records, 60u);
}

}  // namespace
}  // namespace tdr
