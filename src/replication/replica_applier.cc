#include "replication/replica_applier.h"

#include <cassert>
#include <string>
#include <utility>

#include "util/logging.h"

namespace tdr {

void ReplicaApplier::Emit(TraceEventType type, const Job& job,
                          ObjectId oid, std::string detail) {
  if (trace_ == nullptr) return;
  TraceEvent event;
  event.time = sim_->Now();
  event.type = type;
  event.txn = job.txn;
  event.node = job.node->id();
  event.oid = oid;
  // The origin transaction whose updates this replica txn applies (a
  // batch carries one origin txn's writes) — what lets trace exporters
  // draw commit -> apply flow arrows.
  if (!job.records.empty()) event.root = job.records[0].txn;
  event.detail = std::move(detail);
  trace_->OnEvent(event);
}

ReplicaApplier::Job* ReplicaApplier::AcquireJob() {
  if (free_jobs_.empty()) {
    auto owned = std::make_unique<Job>();
    owned->pool_index = static_cast<std::uint32_t>(job_pool_.size());
    // Uniform birth capacity (256 >= the 128-update batch cap): the
    // record copy in Apply() then never grows an arbitrary free-list
    // job's buffer at steady state.
    owned->records.reserve(256);
    job_pool_.push_back(std::move(owned));
    free_jobs_.push_back(job_pool_.back()->pool_index);
  }
  Job* job = job_pool_[free_jobs_.back()].get();
  free_jobs_.pop_back();
  job->serial = next_serial_++;
  return job;
}

void ReplicaApplier::RecycleJob(Job* job) {
  job->serial = 0;
  job->node = nullptr;
  job->records.clear();  // keeps capacity for the next batch
  job->done = nullptr;
  job->txn = kInvalidTxnId;
  job->idx = 0;
  job->report = Report{};
  free_jobs_.push_back(job->pool_index);
}

void ReplicaApplier::Apply(Node* node,
                           const std::vector<UpdateRecord>& records,
                           Options options, Done done) {
  if (options.shards != nullptr && options.shards->num_shards() > 1 &&
      !records.empty()) {
    ApplySharded(node, records, options, std::move(done));
    return;
  }
  Job* job = AcquireJob();
  job->node = node;
  job->records = records;
  job->options = options;
  job->done = std::move(done);
  job->txn = executor_->AllocateTxnId();
  ++active_;
  if (job->records.empty()) {
    FinishJob(job);
    return;
  }
  if (trace_ != nullptr) {
    Emit(TraceEventType::kReplicaTxnStart, *job, job->records[0].oid,
         StrPrintf("%zu updates from txn %llu", job->records.size(),
                   (unsigned long long)job->records[0].txn));
  }
  AcquireNext(job);
}

void ReplicaApplier::ApplySharded(Node* node,
                                  const std::vector<UpdateRecord>& records,
                                  const Options& options, Done done) {
  // Every batch of a sharded cluster comes through here, so the fan-out
  // allocates nothing in steady state: records partition into the
  // per-shard buffers (batch order kept within a shard) and the reports
  // fan in through a pooled record named by index.
  const std::uint32_t num_shards = options.shards->num_shards();
  if (shard_records_.size() < num_shards) shard_records_.resize(num_shards);
  std::uint32_t parts = 0;
  for (const UpdateRecord& rec : records) {
    std::vector<UpdateRecord>& part =
        shard_records_[options.shards->ShardOf(rec.oid)];
    if (part.empty()) ++parts;
    part.push_back(rec);
  }
  std::uint32_t fan_in = static_cast<std::uint32_t>(fan_ins_.size());
  if (free_fan_ins_.empty()) {
    fan_ins_.emplace_back();
  } else {
    fan_in = free_fan_ins_.back();
    free_fan_ins_.pop_back();
  }
  fan_ins_[fan_in].remaining = parts;
  fan_ins_[fan_in].done = std::move(done);
  // Sub-transactions start in ascending shard order, so TxnIds are
  // drawn in a deterministic order. Each is a single-shard Apply that
  // copies its buffer into a job. No done runs inside this loop, so no
  // reentrant call can refill a buffer under it: a fresh transaction's
  // first lock request cannot close a wait-for cycle, so Apply never
  // finishes a non-empty job before returning.
  Options sub = options;
  sub.shards = nullptr;  // each group is single-shard by construction
  for (ShardId shard = 0; parts > 0; ++shard) {
    std::vector<UpdateRecord>& part = shard_records_[shard];
    if (part.empty()) continue;
    --parts;
    ShardAppliedCounter(shard);  // acquire outside the callback
    // 16 bytes of capture: std::function keeps it inline.
    Apply(node, part, sub, [this, shard, fan_in](const Report& r) {
      ShardDone(shard, fan_in, r);
    });
    part.clear();
  }
}

void ReplicaApplier::ShardDone(ShardId shard, std::uint32_t fan_in,
                               const Report& r) {
  ShardAppliedCounter(shard).Increment(r.applied);
  FanIn& f = fan_ins_[fan_in];
  f.report.applied += r.applied;
  f.report.stale += r.stale;
  f.report.conflicts += r.conflicts;
  f.report.deadlock_retries += r.deadlock_retries;
  f.report.gave_up = f.report.gave_up || r.gave_up;
  if (--f.remaining > 0) return;
  // Recycle before invoking done, as FinishJob does: a done that starts
  // another sharded apply can reuse this record.
  Done done = std::move(f.done);
  Report report = f.report;
  f.done = nullptr;
  f.report = Report{};
  free_fan_ins_.push_back(fan_in);
  if (done) done(report);
}

obs::MetricsRegistry::Counter& ReplicaApplier::ShardAppliedCounter(
    ShardId shard) {
  if (shard >= shard_applied_.size()) {
    std::size_t old_size = shard_applied_.size();
    shard_applied_.resize(shard + 1);
    for (std::size_t s = old_size; s < shard_applied_.size(); ++s) {
      shard_applied_[s] = metrics_->GetCounter(
          "replica.shard_applied", {{"shard", std::to_string(s)}});
    }
  }
  return shard_applied_[shard];
}

void ReplicaApplier::AcquireNext(Job* job) {
  if (job->idx >= job->records.size()) {
    // All updates installed: release locks and report.
    job->node->locks().ReleaseAll(job->txn);
    FinishJob(job);
    return;
  }
  const UpdateRecord& rec = job->records[job->idx];
  // Start the cache miss the next event will take: ApplyCurrent reads
  // this record's store slot one action_time from now. See DESIGN.md
  // §12.6.
  job->node->store().Prefetch(rec.oid);
  const std::uint64_t serial = job->serial;
  LockManager::AcquireOutcome outcome = job->node->locks().Acquire(
      job->txn, rec.oid, [this, job, serial]() {
        if (job->serial != serial) return;
        // Lock granted after a wait; pay the action time then apply.
        sim_->ScheduleAfterNode(
            job->node->id(), job->options.action_time,
            [this, job, serial]() {
              if (job->serial != serial) return;
              ApplyCurrent(job);
            });
      });
  switch (outcome) {
    case LockManager::AcquireOutcome::kGranted:
      sim_->ScheduleAfterNode(
          job->node->id(), job->options.action_time, [this, job, serial]() {
            if (job->serial != serial) return;
            ApplyCurrent(job);
          });
      return;
    case LockManager::AcquireOutcome::kQueued:
      m_waits_.Increment();
      return;  // grant callback continues the job
    case LockManager::AcquireOutcome::kDeadlock:
      HandleDeadlock(job);
      return;
  }
}

void ReplicaApplier::ApplyCurrent(Job* job) {
  const UpdateRecord& rec = job->records[job->idx];
  Node* node = job->node;
  node->clock().Observe(rec.new_ts);
  bool installed = false;
  if (job->options.mode == Mode::kTimestampMatch) {
    Status s = node->store().ApplyIfTimestampMatches(rec.oid, rec.new_value,
                                                     rec.old_ts, rec.new_ts);
    if (s.ok()) {
      installed = true;
      ++job->report.applied;
      m_applied_.Increment();
      if (trace_ != nullptr) {
        Emit(TraceEventType::kReplicaApply, *job, rec.oid,
             StrPrintf("<- %s", rec.new_value.ToString().c_str()));
      }
    } else if (s.IsConflict()) {
      // §4: the node rejects the incoming transaction and submits it for
      // reconciliation. The local value stays; divergence is now visible
      // until someone reconciles.
      ++job->report.conflicts;
      m_conflicts_.Increment();
      if (trace_ != nullptr) {
        Emit(TraceEventType::kReplicaConflict, *job, rec.oid, s.message());
      }
    } else {
      assert(false && "unexpected replica apply failure");
    }
  } else {
    bool applied = false;
    Status s =
        node->store().ApplyIfNewer(rec.oid, rec.new_value, rec.new_ts,
                                   &applied);
    assert(s.ok());
    (void)s;
    if (applied) {
      installed = true;
      ++job->report.applied;
      m_applied_.Increment();
      if (trace_ != nullptr) {
        Emit(TraceEventType::kReplicaApply, *job, rec.oid,
             StrPrintf("<- %s", rec.new_value.ToString().c_str()));
      }
    } else {
      ++job->report.stale;
      m_stale_.Increment();
      Emit(TraceEventType::kReplicaStale, *job, rec.oid);
    }
  }
  // Replica installs must survive a crash just like local commits: log
  // every write that actually changed the store. No durability wait —
  // the apply already happened at the origin's commit; here the group
  // committer's window flushes the append in bounded time.
  if (installed) {
    DurabilityHook* durability = executor_->durability();
    if (durability != nullptr && durability->Enabled(node->id())) {
      durability->LogWrite(node->id(), rec.txn, rec.oid, rec.old_ts,
                           rec.new_ts, rec.new_value);
    }
  }
  ++job->idx;
  AcquireNext(job);
}

void ReplicaApplier::HandleDeadlock(Job* job) {
  m_deadlocks_.Increment();
  job->node->locks().ReleaseAll(job->txn);
  ++job->report.deadlock_retries;
  if (job->report.deadlock_retries > kMaxRetries) {
    job->report.gave_up = true;
    m_gave_up_.Increment();
    FinishJob(job);
    return;
  }
  // "If a base transaction deadlocks, it is resubmitted and reprocessed
  // until it succeeds" (§7) — same treatment for replica updates. The
  // retry resumes at the blocked record: earlier records were installed
  // before their locks were released, and re-running them would
  // double-count conflicts.
  job->txn = executor_->AllocateTxnId();
  const std::uint64_t serial = job->serial;
  sim_->ScheduleAfterNode(
      job->node->id(), kRetryBackoff, [this, job, serial]() {
        if (job->serial != serial) return;
        AcquireNext(job);
      });
}

void ReplicaApplier::FinishJob(Job* job) {
  --active_;
  if (trace_ != nullptr && !job->records.empty()) {
    Emit(TraceEventType::kReplicaTxnDone, *job, job->records[0].oid,
         StrPrintf("applied=%llu stale=%llu conflicts=%llu",
                   (unsigned long long)job->report.applied,
                   (unsigned long long)job->report.stale,
                   (unsigned long long)job->report.conflicts));
  }
  // Recycle before invoking done: a reentrant Apply from the callback
  // can reuse this slot's buffer capacity immediately.
  Done done = std::move(job->done);
  Report report = job->report;
  RecycleJob(job);
  if (done) done(report);
}

}  // namespace tdr
