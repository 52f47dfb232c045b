#include "txn/wait_for_graph.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/rng.h"

namespace tdr {
namespace {

TEST(WaitForGraphTest, EmptyGraphHasNoCycles) {
  WaitForGraph g;
  EXPECT_FALSE(g.HasCycleFrom(1));
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(WaitForGraphTest, AddAndRemoveEdge) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.EdgeCount(), 1u);
  g.RemoveEdge(1, 2);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(WaitForGraphTest, SelfEdgesIgnored) {
  WaitForGraph g;
  g.AddEdge(3, 3);
  EXPECT_EQ(g.EdgeCount(), 0u);
  EXPECT_FALSE(g.HasCycleFrom(3));
}

TEST(WaitForGraphTest, ParallelEdgesCollapse) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(WaitForGraphTest, TwoCycleDetected) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  EXPECT_FALSE(g.HasCycleFrom(1));
  g.AddEdge(2, 1);
  EXPECT_TRUE(g.HasCycleFrom(1));
  EXPECT_TRUE(g.HasCycleFrom(2));
}

TEST(WaitForGraphTest, LongCycleDetected) {
  WaitForGraph g;
  // 1 -> 2 -> 3 -> 4 -> 5 -> 1
  for (TxnId t = 1; t < 5; ++t) g.AddEdge(t, t + 1);
  EXPECT_FALSE(g.HasCycleFrom(1));
  g.AddEdge(5, 1);
  for (TxnId t = 1; t <= 5; ++t) {
    EXPECT_TRUE(g.HasCycleFrom(t)) << "from " << t;
  }
}

TEST(WaitForGraphTest, CycleNotThroughStartNotReported) {
  // 1 -> 2, and 3 <-> 4 form a cycle that does not involve 1.
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 3);
  EXPECT_FALSE(g.HasCycleFrom(1));
  EXPECT_TRUE(g.HasCycleFrom(3));
}

TEST(WaitForGraphTest, FindCycleReturnsPath) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  auto cycle = g.FindCycleFrom(1);
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(cycle[0], 1u);
  EXPECT_EQ(cycle[1], 2u);
  EXPECT_EQ(cycle[2], 3u);
}

TEST(WaitForGraphTest, DiamondNoFalseCycle) {
  // 1 -> {2,3} -> 4: converging paths but no cycle.
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 4);
  g.AddEdge(3, 4);
  EXPECT_FALSE(g.HasCycleFrom(1));
  EXPECT_FALSE(g.HasCycleFrom(2));
}

TEST(WaitForGraphTest, ClearOutEdgesKeepsInEdges) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(4, 1);
  g.ClearOutEdges(1);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(4, 1));
}

TEST(WaitForGraphTest, OutEdgesSorted) {
  WaitForGraph g;
  g.AddEdge(1, 9);
  g.AddEdge(1, 3);
  EXPECT_EQ(g.OutEdges(1), (std::vector<TxnId>{3, 9}));
  EXPECT_TRUE(g.OutEdges(7).empty());
}

TEST(WaitForGraphTest, LargeRandomAcyclicGraphStaysAcyclic) {
  // Edges only from lower to higher ids can never form a cycle.
  WaitForGraph g;
  for (TxnId a = 1; a <= 50; ++a) {
    for (TxnId b = a + 1; b <= 50; b += (a % 3) + 1) {
      g.AddEdge(a, b);
    }
  }
  for (TxnId t = 1; t <= 50; ++t) {
    EXPECT_FALSE(g.HasCycleFrom(t));
  }
}

/// Reference wait-for graph: each waiter's set of holders.
using RefGraph = std::map<TxnId, std::set<TxnId>>;

bool RefHasEdge(const RefGraph& ref, TxnId waiter, TxnId holder) {
  auto it = ref.find(waiter);
  return it != ref.end() && it->second.count(holder) > 0;
}

/// True if `start` reaches itself along reference edges.
bool RefHasCycleFrom(const RefGraph& ref, TxnId start) {
  std::set<TxnId> seen;
  std::vector<TxnId> stack{start};
  while (!stack.empty()) {
    const TxnId t = stack.back();
    stack.pop_back();
    auto it = ref.find(t);
    if (it == ref.end()) continue;
    for (TxnId next : it->second) {
      if (next == start) return true;
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

class WaitForGraphModelTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WaitForGraphModelTest, RandomScriptsAgreeWithReference) {
  Rng rng(GetParam());
  WaitForGraph g;
  RefGraph ref;
  constexpr TxnId kTxns = 36;
  auto draw = [&rng] { return 1 + rng.UniformInt(kTxns); };
  for (int step = 0; step < 600; ++step) {
    const TxnId waiter = draw();
    const std::uint64_t op = rng.UniformInt(10);
    auto row = ref.find(waiter);
    if (op < 5) {
      // Half of these repeat an edge the waiter already has, so parallel
      // edges must merge; a self-edge is dropped.
      TxnId holder = draw();
      if (op == 0 && row != ref.end()) holder = *row->second.begin();
      g.AddEdge(waiter, holder);
      if (waiter != holder) ref[waiter].insert(holder);
    } else if (op < 8) {
      TxnId holder = draw();
      if (op == 5 && row != ref.end()) holder = *row->second.rbegin();
      g.RemoveEdge(waiter, holder);
      if (row != ref.end()) {
        row->second.erase(holder);
        if (row->second.empty()) ref.erase(row);
      }
    } else {
      g.ClearOutEdges(waiter);
      if (row != ref.end()) ref.erase(row);
    }
    std::size_t edges = 0;
    for (const auto& [w, holders] : ref) edges += holders.size();
    ASSERT_EQ(g.EdgeCount(), edges) << "step " << step;
    for (TxnId t = 1; t <= kTxns; ++t) {
      auto it = ref.find(t);
      const std::vector<TxnId> out =
          it == ref.end() ? std::vector<TxnId>{}
                          : std::vector<TxnId>(it->second.begin(),
                                               it->second.end());
      ASSERT_EQ(g.OutEdges(t), out) << "step " << step << " txn " << t;
      for (TxnId h = 1; h <= kTxns; ++h) {
        ASSERT_EQ(g.HasEdge(t, h), RefHasEdge(ref, t, h))
            << "step " << step << " edge " << t << "->" << h;
      }
      const bool cycle = RefHasCycleFrom(ref, t);
      ASSERT_EQ(g.HasCycleFrom(t), cycle) << "step " << step << " txn " << t;
      // The reported cycle starts at t and follows real edges back to t.
      const std::vector<TxnId> path = g.FindCycleFrom(t);
      ASSERT_EQ(!path.empty(), cycle) << "step " << step << " txn " << t;
      for (std::size_t i = 0; i < path.size(); ++i) {
        const TxnId to = path[(i + 1) % path.size()];
        ASSERT_TRUE(RefHasEdge(ref, path[i], to)) << "step " << step;
      }
      if (!path.empty()) {
        ASSERT_EQ(path.front(), t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitForGraphModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tdr
