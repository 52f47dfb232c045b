#include "replication/repair.h"

#include "util/logging.h"

namespace tdr {

std::vector<ObjectId> DivergenceRepair::FindDivergentObjects() const {
  std::vector<ObjectId> out;
  const std::uint64_t db_size = cluster_->options().db_size;
  for (ObjectId oid = 0; oid < db_size; ++oid) {
    const StoredObject& reference =
        cluster_->node(0)->store().GetUnchecked(oid);
    for (NodeId n = 1; n < cluster_->size(); ++n) {
      if (!cluster_->node(n)->store().GetUnchecked(oid).SameValueAs(
              reference)) {
        out.push_back(oid);
        break;
      }
    }
  }
  return out;
}

StoredObject DivergenceRepair::PickWinner(ObjectId oid,
                                          const ReconciliationRule& rule,
                                          NodeId* source) const {
  StoredObject winner = cluster_->node(0)->store().GetUnchecked(oid);
  NodeId winner_node = 0;
  // Each distinct VERSION enters the tournament once: several replicas
  // holding the same lost branch must not be folded in repeatedly (it
  // would double-count additive merges).
  std::vector<Value> seen = {winner.value()};
  for (NodeId n = 1; n < cluster_->size(); ++n) {
    const StoredObject& challenger =
        cluster_->node(n)->store().GetUnchecked(oid);
    const Value challenger_value = challenger.value();
    bool already = false;
    for (const Value& v : seen) {
      if (v == challenger_value) {
        already = true;
        break;
      }
    }
    if (already) continue;
    seen.push_back(challenger_value);
    ConflictContext ctx;
    ctx.oid = oid;
    ctx.node_a = winner_node;
    ctx.node_b = n;
    ctx.a = &winner;
    ctx.b = &challenger;
    StoredObject merged = rule(ctx);
    // Track provenance: if the merged value equals the challenger's the
    // challenger "won"; synthesized values (additive etc.) keep the
    // incumbent's label with a marker.
    if (merged.SameValueAs(challenger)) {
      winner_node = n;
    } else if (!merged.SameValueAs(winner)) {
      winner_node = kInvalidNodeId;  // synthesized by the rule
    }
    winner = std::move(merged);
  }
  if (source != nullptr) *source = winner_node;
  return winner;
}

DivergenceRepair::Report DivergenceRepair::Plan(
    const ReconciliationRule& rule) const {
  Report report;
  for (ObjectId oid : FindDivergentObjects()) {
    ++report.objects_diverged;
    ObjectReport obj;
    obj.oid = oid;
    // Count distinct values across replicas.
    std::vector<Value> seen;
    for (NodeId n = 0; n < cluster_->size(); ++n) {
      const Value v = cluster_->node(n)->store().GetUnchecked(oid).value();
      bool found = false;
      for (const Value& s : seen) {
        if (s == v) {
          found = true;
          break;
        }
      }
      if (!found) seen.push_back(v);
    }
    obj.distinct_versions = static_cast<std::uint32_t>(seen.size());
    NodeId source = 0;
    StoredObject winner = PickWinner(oid, rule, &source);
    obj.winner = winner.value();
    obj.winner_source = source == kInvalidNodeId
                            ? "merged"
                            : StrPrintf("node %u", source);
    report.objects.push_back(std::move(obj));
  }
  return report;
}

DivergenceRepair::Report DivergenceRepair::Execute(
    const ReconciliationRule& rule) {
  Report report = Plan(rule);
  if (report.objects_diverged == 0) return report;
  // A repair timestamp newer than every existing one: pull the max of
  // all clocks AND the stored timestamps of the objects under repair
  // into node 0's clock before ticking.
  for (NodeId n = 0; n < cluster_->size(); ++n) {
    cluster_->node(0)->clock().Observe(cluster_->node(n)->clock().Peek());
    for (const ObjectReport& obj : report.objects) {
      cluster_->node(0)->clock().Observe(
          cluster_->node(n)->store().GetUnchecked(obj.oid).ts());
    }
  }
  for (const ObjectReport& obj : report.objects) {
    Timestamp repair_ts = cluster_->node(0)->clock().Tick();
    for (NodeId n = 0; n < cluster_->size(); ++n) {
      Node* node = cluster_->node(n);
      node->clock().Observe(repair_ts);
      const StoredObject& cur = node->store().GetUnchecked(obj.oid);
      if (cur.value() == obj.winner && cur.ts() == repair_ts) continue;
      Status s = node->store().Put(obj.oid, obj.winner, repair_ts);
      (void)s;
      ++report.replicas_patched;
    }
    cluster_->metrics().Increment("repair.objects");
  }
  return report;
}

}  // namespace tdr
