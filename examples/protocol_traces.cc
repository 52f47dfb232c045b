// Protocol traces: the paper's figures, regenerated as actual
// executions of this library with the trace facility attached.
//
//   Figure 1 — a single-node transaction vs. a three-node EAGER
//              transaction vs. a three-node LAZY transaction (which is
//              really three transactions);
//   Figure 4 — a lazy transaction whose replica update arrives with a
//              mismatched old timestamp and triggers reconciliation;
//   Figure 5/6 flavour — a tentative transaction becoming a base
//              transaction on reconnect (traced through the executor).

#include <cstdio>

#include "core/two_tier.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "txn/trace.h"

using namespace tdr;

namespace {

void Banner(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

Cluster::Options ThreeNodes() {
  Cluster::Options o;
  o.num_nodes = 3;
  o.db_size = 8;
  o.action_time = SimTime::Millis(10);
  return o;
}

void Figure1SingleNode() {
  Banner("Figure 1 (left): single-node transaction");
  Cluster::Options o = ThreeNodes();
  o.num_nodes = 1;
  Cluster cluster(o);
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  EagerGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(0, 1), Op::Write(1, 2),
                            Op::Write(2, 3)}),
                nullptr);
  cluster.sim().Run();
  std::printf("%s", sink.ToString().c_str());
}

void Figure1Eager() {
  Banner("Figure 1 (middle): three-node EAGER transaction — one "
         "transaction, 3x the work");
  Cluster cluster(ThreeNodes());
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  EagerGroupScheme scheme(&cluster);
  scheme.Submit(0, Program({Op::Write(0, 1), Op::Write(1, 2),
                            Op::Write(2, 3)}),
                nullptr);
  cluster.sim().Run();
  std::printf("%s", sink.ToString().c_str());
}

void Figure1Lazy() {
  Banner("Figure 1 (right): three-node LAZY transaction — actually 3 "
         "transactions");
  Cluster cluster(ThreeNodes());
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  LazyGroupScheme scheme(&cluster);
  scheme.set_trace_sink(&sink);
  scheme.Submit(0, Program({Op::Write(0, 1), Op::Write(1, 2),
                            Op::Write(2, 3)}),
                nullptr);
  cluster.sim().Run();
  std::printf("%s", sink.ToString().c_str());
}

void Figure4Reconciliation() {
  Banner("Figure 4: lazy replica update carries (OID, old ts, new value); "
         "a mismatch means reconciliation");
  Cluster cluster(ThreeNodes());
  VectorTraceSink sink;
  cluster.executor().set_trace_sink(&sink);
  LazyGroupScheme scheme(&cluster);
  scheme.set_trace_sink(&sink);
  // Two racing root transactions on object 0 at different nodes: each
  // commits locally, each ships a replica update stamped with the old
  // timestamp it saw — and each finds the other's commit in the way.
  scheme.Submit(0, Program({Op::Write(0, 100)}), nullptr);
  scheme.Submit(1, Program({Op::Write(0, 200)}), nullptr);
  cluster.sim().Run();
  std::printf("%s", sink.ToString().c_str());
  std::printf("-> reconciliations detected: %llu (the books now "
              "disagree)\n",
              (unsigned long long)scheme.reconciliations());
}

void Figure5TwoTier() {
  Banner("Figure 5/6: tentative transaction reprocessed as a base "
         "transaction at reconnect");
  TwoTierSystem::Options topts;
  topts.num_base = 2;
  topts.num_mobile = 1;
  topts.db_size = 8;
  topts.action_time = SimTime::Millis(10);
  TwoTierSystem sys(topts);
  VectorTraceSink sink;
  sys.cluster().executor().set_trace_sink(&sink);
  sys.lazy_master().set_trace_sink(&sink);
  sys.SubmitTentative(2, Program({Op::Subtract(0, 50)}),
                      ScalarAtLeast(0, -1000), nullptr, nullptr);
  sys.sim().Run();
  std::printf("(mobile node 2 executed the tentative transaction locally; "
              "nothing below ran yet)\n");
  sys.Connect(2);
  sys.sim().Run();
  std::printf("%s", sink.ToString().c_str());
  std::printf("-> base state after reprocessing: %lld at base node 0\n",
              (long long)sys.cluster()
                  .node(0)
                  ->store()
                  .GetUnchecked(0)
                  .AsScalar());
}

}  // namespace

int main() {
  Figure1SingleNode();
  Figure1Eager();
  Figure1Lazy();
  Figure4Reconciliation();
  Figure5TwoTier();
  return 0;
}
