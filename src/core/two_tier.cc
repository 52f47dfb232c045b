#include "core/two_tier.h"

#include <cassert>
#include <utility>

#include "util/logging.h"

namespace tdr {

namespace {

Cluster::Options MakeClusterOptions(const TwoTierSystem::Options& o) {
  Cluster::Options c;
  c.num_nodes = o.num_base + o.num_mobile;
  c.db_size = o.db_size;
  c.action_time = o.action_time;
  c.seed = o.seed;
  return c;
}

std::vector<NodeId> BaseNodeIds(std::uint32_t num_base) {
  std::vector<NodeId> ids(num_base);
  for (std::uint32_t i = 0; i < num_base; ++i) ids[i] = i;
  return ids;
}

}  // namespace

TwoTierSystem::TwoTierSystem(Options options)
    : options_(options),
      cluster_(MakeClusterOptions(options)),
      // "Most items are mastered at base nodes" — round-robin there.
      ownership_(Ownership::RoundRobin(options.db_size,
                                       BaseNodeIds(options.num_base))),
      lazy_master_(&cluster_, &ownership_) {
  assert(options_.num_base >= 1);
  for (NodeId id = options_.num_base;
       id < options_.num_base + options_.num_mobile; ++id) {
    mobiles_.emplace(id, std::unique_ptr<MobileNode>(
                             new MobileNode(this, cluster_.node(id))));
    // Mobile nodes start disconnected (that is their normal state).
    cluster_.net().SetConnected(id, false);
    // Reconnect wiring: §7 exchange protocol. Network flushes the
    // mobile's queued slave updates first (protocol step "accepts
    // replica updates from the base node"), then this hook discards
    // tentative versions and reprocesses pending tentative txns.
    MobileNode* m = mobiles_.at(id).get();
    cluster_.net().OnReconnect(id, [this, m]() {
      // Step 1: "Discards its tentative object versions since they will
      // soon be refreshed from the masters."
      m->tentative_.DiscardTentative();
      MaybeDrain(m);
    });
  }
}

void TwoTierSystem::SetMobileMaster(ObjectId oid, NodeId mobile_id) {
  assert(IsMobile(mobile_id));
  ownership_.SetOwner(oid, mobile_id);
}

Status TwoTierSystem::SubmitTentative(NodeId mobile_id, Program program,
                                      AcceptanceCriterion acceptance,
                                      TentativeCallback on_tentative,
                                      FinalCallback on_final) {
  if (!IsMobile(mobile_id)) {
    return Status::InvalidArgument("SubmitTentative: not a mobile node");
  }
  MobileNode* m = mobiles_.at(mobile_id).get();
  // SCOPE RULE: "they may involve objects mastered on base nodes and
  // mastered at the mobile node originating the transaction" (§7).
  for (ObjectId oid : program.Objects()) {
    NodeId owner = ownership_.OwnerOf(oid);
    if (!IsBase(owner) && owner != mobile_id) {
      return Status::InvalidArgument(StrPrintf(
          "scope rule violation: object %llu is mastered at node %u, "
          "which is neither a base node nor mobile node %u",
          (unsigned long long)oid, owner, mobile_id));
    }
  }
  MobileNode::PendingTxn item;
  item.seq = m->next_seq_++;
  item.program = std::move(program);
  item.acceptance = acceptance ? std::move(acceptance) : AcceptAlways();
  item.on_tentative_cb = std::move(on_tentative);
  item.on_final = std::move(on_final);
  cluster_.metrics().Increment("twotier.tentative_submitted");
  m->to_execute_.push_back(std::move(item));
  if (!m->executing_) ExecuteNextTentative(m);
  return Status::OK();
}

void TwoTierSystem::ExecuteNextTentative(MobileNode* m) {
  if (m->to_execute_.empty()) {
    m->executing_ = false;
    return;
  }
  m->executing_ = true;
  // Tentative transactions run locally, serialized per mobile node (one
  // user per checkbook), costing Action_Time per op.
  SimTime duration =
      options_.action_time *
      static_cast<std::int64_t>(m->to_execute_.front().program.size());
  sim().ScheduleAfter(duration, [this, m]() {
    MobileNode::PendingTxn item = std::move(m->to_execute_.front());
    m->to_execute_.pop_front();
    // Apply the program to the tentative overlay, recording the result.
    TxnResult& res = item.tentative_result;
    res.origin = m->id();
    res.outcome = TxnOutcome::kCommitted;
    res.start_time = sim().Now() - options_.action_time *
                                       static_cast<std::int64_t>(
                                           item.program.size());
    res.end_time = sim().Now();
    std::map<ObjectId, Value> written;
    for (const Op& op : item.program.ops()) {
      auto cur = m->tentative_.Read(op.oid);
      assert(cur.ok());
      Value value = cur.value().value();
      if (op.type == OpType::kRead) {
        res.reads.push_back(value);
        continue;
      }
      op.ApplyTo(&value);
      Timestamp ts = m->node_->clock().Tick();
      Status s = m->tentative_.WriteTentative(op.oid, value, ts);
      assert(s.ok());
      (void)s;
      written[op.oid] = value;
      res.commit_ts = ts;
    }
    for (const auto& [oid, value] : written) {
      UpdateRecord rec;
      rec.oid = oid;
      rec.new_value = value;
      rec.new_ts = res.commit_ts;
      rec.origin = m->id();
      res.updates.push_back(std::move(rec));
    }
    cluster_.metrics().Increment("twotier.tentative_committed");
    if (item.on_tentative_cb) item.on_tentative_cb(res);
    // Queue for base reprocessing in tentative-commit order.
    m->pending_.push_back(std::move(item));
    if (m->connected()) MaybeDrain(m);
    ExecuteNextTentative(m);
  });
}

void TwoTierSystem::MaybeDrain(MobileNode* m) {
  if (m->draining_ || m->pending_.empty() || !m->connected()) return;
  m->draining_ = true;
  ReprocessFront(m, /*attempts=*/0);
}

void TwoTierSystem::ReprocessFront(MobileNode* m, int attempts) {
  if (m->pending_.empty() || !m->connected()) {
    m->draining_ = false;
    return;
  }
  // Peek, do not pop: on kUnavailable the item stays for the next
  // reconnect.
  const MobileNode::PendingTxn& front = m->pending_.front();
  // Capture the acceptance decision made inside the precommit hook so
  // the rejection diagnostic survives to the FinalOutcome.
  auto decision = std::make_shared<AcceptanceDecision>();
  auto acceptance = front.acceptance;
  TxnResult tentative_snapshot = front.tentative_result;
  lazy_master_.SubmitWithPrecommit(
      m->id(), front.program,
      [decision, acceptance, tentative_snapshot](const TxnResult& base) {
        *decision = acceptance(base, tentative_snapshot);
        return decision->accepted;
      },
      [this, m, attempts, decision](const TxnResult& base) {
        switch (base.outcome) {
          case TxnOutcome::kCommitted: {
            MobileNode::PendingTxn item = std::move(m->pending_.front());
            m->pending_.pop_front();
            base_deadlock_retries_ += attempts;
            cluster_.metrics().Increment("twotier.base_committed");
            FinalOutcome out;
            out.accepted = true;
            out.base_result = base;
            DeliverFinal(m, std::move(item), std::move(out));
            ReprocessFront(m, 0);
            return;
          }
          case TxnOutcome::kRejected: {
            MobileNode::PendingTxn item = std::move(m->pending_.front());
            m->pending_.pop_front();
            base_deadlock_retries_ += attempts;
            cluster_.metrics().Increment("twotier.base_rejected");
            FinalOutcome out;
            out.accepted = false;
            out.reason = decision->reason;
            out.base_result = base;
            DeliverFinal(m, std::move(item), std::move(out));
            ReprocessFront(m, 0);
            return;
          }
          case TxnOutcome::kDeadlock: {
            // "If a base transaction deadlocks, it is resubmitted and
            // reprocessed until it succeeds" (§7).
            cluster_.metrics().Increment("twotier.base_deadlocks");
            if (attempts + 1 > kMaxBaseRetries) {
              // Safety valve; with the paper's semantics this should be
              // unreachable in practice.
              MobileNode::PendingTxn item = std::move(m->pending_.front());
              m->pending_.pop_front();
              FinalOutcome out;
              out.accepted = false;
              out.reason = "base transaction exceeded deadlock retries";
              out.base_result = base;
              DeliverFinal(m, std::move(item), std::move(out));
              ReprocessFront(m, 0);
              return;
            }
            sim().ScheduleAfter(kBaseRetryBackoff, [this, m, attempts]() {
              ReprocessFront(m, attempts + 1);
            });
            return;
          }
          case TxnOutcome::kUnavailable:
            // Mobile dropped off mid-drain; keep the item pending.
            cluster_.metrics().Increment("twotier.requeued_unavailable");
            m->draining_ = false;
            return;
        }
      });
}

void TwoTierSystem::DeliverFinal(MobileNode* m, MobileNode::PendingTxn item,
                                 FinalOutcome outcome) {
  if (!item.on_final) return;
  // The notice travels host -> mobile; if the mobile has dropped off it
  // waits in the mobile's inbox ("Accepts notice of the success or
  // failure of each tentative transaction" happens at the next
  // reconnect).
  NodeId host = HostOf(m->id());
  auto cb = item.on_final;
  cluster_.net().Send(host, m->id(),
                      [cb, outcome = std::move(outcome)]() { cb(outcome); });
}

void TwoTierSystem::SubmitBase(NodeId base_origin, const Program& program,
                               Executor::DoneCallback done) {
  assert(IsBase(base_origin));
  lazy_master_.Submit(base_origin, program, std::move(done));
}

Status TwoTierSystem::SubmitLocal(NodeId mobile_id, const Program& program,
                                  Executor::DoneCallback done) {
  if (!IsMobile(mobile_id)) {
    return Status::InvalidArgument("SubmitLocal: not a mobile node");
  }
  MobileNode* m = mobiles_.at(mobile_id).get();
  for (ObjectId oid : program.Objects()) {
    if (ownership_.OwnerOf(oid) != mobile_id) {
      return Status::InvalidArgument(StrPrintf(
          "local transaction touches object %llu not mastered at mobile "
          "node %u",
          (unsigned long long)oid, mobile_id));
    }
    if (m->tentative_.HasTentative(oid)) {
      // "They cannot read or write any tentative data because that
      // would make them tentative."
      return Status::FailedPrecondition(StrPrintf(
          "object %llu has a tentative version; a local transaction "
          "cannot touch it",
          (unsigned long long)oid));
    }
  }
  // The mobile node IS the master of everything in scope: execute
  // directly against its master copies. This works disconnected.
  Executor::RunOptions opts;
  opts.action_time = options_.action_time;
  opts.record_updates = true;
  cluster_.metrics().Increment("twotier.local_submitted");
  Executor& executor = cluster_.executor();
  LocalPlanInto(mobile_id, program, &executor.NewPlan());
  executor.RunPlan(
      mobile_id, std::move(opts),
      [this, mobile_id, done = std::move(done)](const TxnResult& result) {
        if (result.outcome == TxnOutcome::kCommitted) {
          cluster_.metrics().Increment("twotier.local_committed");
          // Standard lazy-master slave refresh from the mobile master to
          // every other replica; the Network queues these in the
          // mobile's outbox until it reconnects.
          lazy_master_.Propagate(result);
        }
        if (done) done(result);
      });
  return Status::OK();
}

void TwoTierSystem::Connect(NodeId mobile_id) {
  assert(IsMobile(mobile_id));
  cluster_.net().SetConnected(mobile_id, true);
}

void TwoTierSystem::Disconnect(NodeId mobile_id) {
  assert(IsMobile(mobile_id));
  cluster_.net().SetConnected(mobile_id, false);
}

bool TwoTierSystem::BaseTierConverged() const {
  const ObjectStore& ref = cluster_.node(0)->store();
  for (NodeId id = 1; id < options_.num_base; ++id) {
    if (!cluster_.node(id)->store().SameValuesAs(ref)) return false;
  }
  return true;
}

}  // namespace tdr
