#include "replication/convergence.h"

#include <algorithm>
#include <cassert>

namespace tdr {

ReconciliationRule TimePriorityRule() {
  return [](const ConflictContext& ctx) {
    return ctx.a->ts() >= ctx.b->ts() ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule SitePriorityRule() {
  return [](const ConflictContext& ctx) {
    return ctx.node_a <= ctx.node_b ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule ValuePriorityRule() {
  return [](const ConflictContext& ctx) {
    return ctx.a->AsScalar() >= ctx.b->AsScalar() ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule EarliestTimestampRule() {
  return [](const ConflictContext& ctx) {
    return ctx.a->ts() <= ctx.b->ts() ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule PriorityGroupRule(std::map<NodeId, int> rank) {
  return [rank = std::move(rank)](const ConflictContext& ctx) {
    auto rank_of = [&rank](NodeId node) {
      auto it = rank.find(node);
      return it == rank.end() ? INT32_MAX : it->second;
    };
    int ra = rank_of(ctx.node_a);
    int rb = rank_of(ctx.node_b);
    if (ra != rb) return ra < rb ? *ctx.a : *ctx.b;
    return ctx.a->ts() >= ctx.b->ts() ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule MinimumValueRule() {
  return [](const ConflictContext& ctx) {
    return ctx.a->AsScalar() <= ctx.b->AsScalar() ? *ctx.a : *ctx.b;
  };
}

ReconciliationRule AverageValueRule() {
  return [](const ConflictContext& ctx) {
    std::int64_t a = ctx.a->AsScalar();
    std::int64_t b = ctx.b->AsScalar();
    return StoredObject(Value(a + (b - a) / 2),
                        std::max(ctx.a->ts(), ctx.b->ts()));
  };
}

ReconciliationRule DiscardRule() {
  return [](const ConflictContext& ctx) { return *ctx.a; };
}

ReconciliationRule OverwriteRule() {
  return [](const ConflictContext& ctx) { return *ctx.b; };
}

ReconciliationRule ListMergeRule() {
  return [](const ConflictContext& ctx) {
    const Timestamp newer = std::max(ctx.a->ts(), ctx.b->ts());
    if (ctx.a->is_list() || ctx.b->is_list()) {
      StoredObject merged = *ctx.a;
      for (std::int64_t item : ctx.b->AsList()) merged.Append(item);
      merged.set_ts(newer);
      return merged;
    }
    return StoredObject(Value(ctx.a->AsScalar() + ctx.b->AsScalar()), newer);
  };
}

ReconciliationRule AdditiveMergeRule() {
  return [](const ConflictContext& ctx) {
    // Sums the two concurrent scalar versions. Exact when the common
    // ancestor value is zero (each side's value IS its accumulated
    // increments); for nonzero ancestors the op-based gossip path is the
    // correct commutative mechanism. Takes the newer timestamp.
    return StoredObject(Value(ctx.a->AsScalar() + ctx.b->AsScalar()),
                        std::max(ctx.a->ts(), ctx.b->ts()));
  };
}

ReconciliationRule RuleByName(std::string_view name) {
  if (name == "additive") return AdditiveMergeRule();
  if (name == "average") return AverageValueRule();
  if (name == "discard") return DiscardRule();
  if (name == "earliest-timestamp") return EarliestTimestampRule();
  if (name == "latest-timestamp") return TimePriorityRule();
  if (name == "list-merge") return ListMergeRule();
  if (name == "maximum") return ValuePriorityRule();
  if (name == "minimum") return MinimumValueRule();
  if (name == "overwrite") return OverwriteRule();
  if (name == "priority-group") return PriorityGroupRule({});
  if (name == "site-priority") return SitePriorityRule();
  if (name == "user-function") {
    // Template slot: "users can program their own reconciliation rules".
    return TimePriorityRule();
  }
  return nullptr;
}

std::vector<std::string> RuleCatalogue() {
  return {"additive",           "average",  "discard",
          "earliest-timestamp", "latest-timestamp", "list-merge",
          "maximum",            "minimum",  "overwrite",
          "priority-group",     "site-priority", "user-function"};
}

GossipReplica::GossipReplica(NodeId id, std::uint64_t db_size)
    : id_(id), store_(db_size), vv_(db_size), clock_(id) {}

Timestamp GossipReplica::NextTs() { return clock_.Tick(); }

void GossipReplica::LocalReplace(ObjectId oid, const Value& value) {
  store_.GetMutable(oid).Set(value, NextTs());
  vv_[oid].Increment(id_);
}

void GossipReplica::LocalReplaceAdd(ObjectId oid, std::int64_t delta) {
  const StoredObject& cur = store_.GetUnchecked(oid);
  LocalReplace(oid, Value(cur.AsScalar() + delta));
}

void GossipReplica::LocalDelta(ObjectId oid, std::int64_t delta) {
  StoredObject& obj = store_.GetMutable(oid);
  obj.SetScalar(obj.AsScalar() + delta);
  obj.set_ts(NextTs());
  LoggedOp op;
  op.kind = LoggedOp::Kind::kDelta;
  op.oid = oid;
  op.arg = delta;
  op.ts = obj.ts();
  op.origin = id_;
  op.seq = next_seq_++;
  delivered_seq_[id_] = op.seq;
  op_log_.push_back(op);
}

void GossipReplica::LocalAppend(ObjectId oid, std::int64_t item) {
  StoredObject& obj = store_.GetMutable(oid);
  obj.Append(item);
  obj.set_ts(NextTs());
  LoggedOp op;
  op.kind = LoggedOp::Kind::kAppend;
  op.oid = oid;
  op.arg = item;
  op.ts = obj.ts();
  op.origin = id_;
  op.seq = next_seq_++;
  delivered_seq_[id_] = op.seq;
  op_log_.push_back(op);
}

std::uint64_t GossipReplica::ExchangeState(GossipReplica* other,
                                           const ReconciliationRule& rule) {
  assert(store_.size() == other->store_.size());
  std::uint64_t conflicts = 0;
  for (ObjectId oid = 0; oid < store_.size(); ++oid) {
    StoredObject& mine = store_.GetMutable(oid);
    StoredObject& theirs = other->store_.GetMutable(oid);
    VersionVector& my_vv = vv_[oid];
    VersionVector& their_vv = other->vv_[oid];
    if (mine.SameValueAs(theirs) && my_vv == their_vv) continue;
    if (my_vv.Dominates(their_vv)) {
      theirs = mine;  // "the most recent update wins each pairwise
                      // exchange" — here, the causally dominant one
      their_vv = my_vv;
      continue;
    }
    if (their_vv.Dominates(my_vv)) {
      mine = theirs;
      my_vv = their_vv;
      continue;
    }
    // Concurrent versions: a real update/update conflict. "Rejected
    // updates are reported" (Access); the rule picks the survivor.
    ++conflicts;
    ++conflicts_;
    ++other->conflicts_;
    ConflictContext ctx;
    ctx.oid = oid;
    ctx.node_a = id_;
    ctx.node_b = other->id_;
    ctx.a = &mine;
    ctx.b = &theirs;
    StoredObject winner = rule(ctx);
    winner.set_ts(std::max(mine.ts(), theirs.ts()));
    mine = winner;
    theirs = winner;
    my_vv.Merge(their_vv);
    their_vv = my_vv;
  }
  clock_.Observe(other->clock_.Peek());
  other->clock_.Observe(clock_.Peek());
  return conflicts;
}

void GossipReplica::ApplyForeignOp(const LoggedOp& op) {
  StoredObject& obj = store_.GetMutable(op.oid);
  if (op.kind == LoggedOp::Kind::kDelta) {
    obj.SetScalar(obj.AsScalar() + op.arg);
  } else {
    obj.Append(op.arg);
  }
  obj.set_ts(std::max(obj.ts(), op.ts));
  clock_.Observe(op.ts);
  op_log_.push_back(op);  // retained for transitive forwarding
}

std::uint64_t GossipReplica::ExchangeOps(GossipReplica* other) {
  std::uint64_t transferred = 0;
  auto pull = [&transferred](GossipReplica* dst, GossipReplica* src) {
    // Scan the source log for ops past the destination's per-origin
    // watermark. Logs are append-ordered per origin, so one pass with
    // watermark updates delivers each op exactly once.
    for (const LoggedOp& op : src->op_log_) {
      std::uint64_t& seen = dst->delivered_seq_[op.origin];
      if (op.seq <= seen) continue;
      // Ops from one origin appear in seq order, so no gap can form.
      assert(op.seq == seen + 1);
      seen = op.seq;
      dst->ApplyForeignOp(op);
      ++transferred;
    }
  };
  pull(this, other);
  pull(other, this);
  return transferred;
}

GossipCluster::GossipCluster(std::uint32_t replicas, std::uint64_t db_size) {
  replicas_.reserve(replicas);
  for (NodeId id = 0; id < replicas; ++id) {
    replicas_.push_back(std::make_unique<GossipReplica>(id, db_size));
  }
}

std::uint64_t GossipCluster::ConvergeState(const ReconciliationRule& rule) {
  std::uint64_t conflicts = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint64_t> before;
    before.reserve(replicas_.size());
    for (const auto& r : replicas_) before.push_back(r->store().Digest());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      for (std::size_t j = i + 1; j < replicas_.size(); ++j) {
        conflicts += replicas_[i]->ExchangeState(replicas_[j].get(), rule);
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i]->store().Digest() != before[i]) {
        changed = true;
        break;
      }
    }
    if (!changed) return conflicts;
  }
  assert(false && "state exchange failed to converge");
  return conflicts;
}

std::uint64_t GossipCluster::ConvergeOps() {
  std::uint64_t total = 0;
  for (int round = 0; round < 64; ++round) {
    std::uint64_t transferred = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      for (std::size_t j = i + 1; j < replicas_.size(); ++j) {
        transferred += replicas_[i]->ExchangeOps(replicas_[j].get());
      }
    }
    total += transferred;
    if (transferred == 0) return total;
  }
  assert(false && "op exchange failed to converge");
  return total;
}

bool GossipCluster::Converged() const {
  for (std::size_t i = 1; i < replicas_.size(); ++i) {
    if (!replicas_[0]->store().SameValuesAs(replicas_[i]->store())) {
      return false;
    }
  }
  return true;
}

}  // namespace tdr
