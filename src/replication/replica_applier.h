#ifndef TDR_REPLICATION_REPLICA_APPLIER_H_
#define TDR_REPLICATION_REPLICA_APPLIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "storage/shard_map.h"
#include "storage/update_record.h"
#include "txn/executor.h"
#include "txn/node.h"
#include "txn/trace.h"
#include "util/stats.h"

namespace tdr {

/// Applies a batch of replica updates at one node as a *replica update
/// transaction* — the separate lazy transactions of Figure 1/Figure 4.
///
/// The transaction locks each target object (one action per update, each
/// costing Action_Time after its lock grant, so replica updates load the
/// node exactly as the model assumes), then installs the new values
/// under the scheme's conflict test:
///
///  * kTimestampMatch (lazy group, §4): apply iff the local timestamp
///    equals the update's old timestamp; otherwise count a
///    reconciliation and leave the local value alone.
///  * kNewerWins (lazy master, §5): apply iff the update's timestamp is
///    newer; stale updates are silently ignored.
///
/// Replica update transactions "can abort and restart without affecting
/// the user" (§5); on deadlock the applier releases everything and
/// retries after a short backoff, up to kMaxRetries times.
class ReplicaApplier {
 public:
  enum class Mode {
    kTimestampMatch,
    kNewerWins,
  };

  struct Options {
    SimTime action_time = SimTime::Millis(10);
    Mode mode = Mode::kTimestampMatch;
    /// With a multi-shard map, a batch is partitioned by shard and each
    /// non-empty shard applies as its OWN replica transaction, in
    /// ascending shard order — atomic per shard. Lock footprints shrink
    /// to one shard's objects, shards apply concurrently in sim time,
    /// and a deadlock retry re-runs only its shard. Null (or one
    /// shard): the whole batch is one transaction, exactly the
    /// unsharded plane. `done` fires once either way, with the
    /// aggregated report.
    const ShardMap* shards = nullptr;
  };

  /// Deadlock retries per replica transaction before it gives up, and
  /// the backoff before each retry.
  static constexpr int kMaxRetries = 1000;
  static constexpr SimTime kRetryBackoff = SimTime::Millis(10);

  struct Report {
    std::uint64_t applied = 0;
    std::uint64_t stale = 0;         // kNewerWins: ignored stale updates
    std::uint64_t conflicts = 0;     // kTimestampMatch: reconciliations
    int deadlock_retries = 0;
    bool gave_up = false;            // exceeded kMaxRetries
  };

  using Done = std::function<void(const Report&)>;

  /// `executor` supplies transaction ids (shared id space keeps the
  /// global wait-for graph sound); `metrics` receives the counts.
  ReplicaApplier(runtime::Runtime* rt, Executor* executor,
                 obs::MetricsRegistry* metrics)
      : sim_(rt), executor_(executor), metrics_(metrics) {
    m_waits_ = metrics->GetCounter("replica.waits");
    m_applied_ = metrics->GetCounter("replica.applied");
    m_conflicts_ = metrics->GetCounter("replica.conflicts");
    m_stale_ = metrics->GetCounter("replica.stale");
    m_deadlocks_ = metrics->GetCounter("replica.deadlocks");
    m_gave_up_ = metrics->GetCounter("replica.gave_up");
  }

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Starts one replica update transaction applying `records` at
  /// `node`, in order. The records are copied into a pooled job buffer
  /// (the pool retains capacity across batches, so steady state copies
  /// without allocating). `done` fires once, in simulated time.
  void Apply(Node* node, const std::vector<UpdateRecord>& records,
             Options options, Done done);

  /// Batches currently in flight (including those between retries).
  std::size_t ActiveCount() const { return active_; }

  /// Attaches a protocol trace sink (not owned; null detaches).
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

 private:
  /// One in-flight batch. Jobs live in a recycled pool (stable
  /// addresses); callbacks capture the raw pointer plus the job's
  /// serial and bail if the serial moved on — the pooled analogue of
  /// the shared_ptr lifetime the applier used to pay an allocation for.
  struct Job {
    std::uint32_t pool_index = 0;
    std::uint64_t serial = 0;  // 0 = idle; never reused while active
    Node* node = nullptr;
    std::vector<UpdateRecord> records;
    Options options;
    Done done;
    TxnId txn = kInvalidTxnId;
    std::size_t idx = 0;
    Report report;
  };

  /// Fan-in for one multi-shard batch: sums its shards' reports and
  /// fires the caller's `done` when the last shard finishes. Pooled and
  /// free-listed like jobs; shard callbacks name it by index.
  struct FanIn {
    Report report;
    std::uint32_t remaining = 0;  // shards still applying
    Done done;
  };

  Job* AcquireJob();
  void RecycleJob(Job* job);
  void ApplySharded(Node* node, const std::vector<UpdateRecord>& records,
                    const Options& options, Done done);
  void ShardDone(ShardId shard, std::uint32_t fan_in, const Report& r);
  void AcquireNext(Job* job);
  void ApplyCurrent(Job* job);
  void HandleDeadlock(Job* job);
  void FinishJob(Job* job);
  void Emit(TraceEventType type, const Job& job, ObjectId oid,
            std::string detail = "");
  obs::MetricsRegistry::Counter& ShardAppliedCounter(ShardId shard);

  runtime::Runtime* sim_;
  Executor* executor_;
  obs::MetricsRegistry* metrics_;
  // Cached metric handles.
  obs::MetricsRegistry::Counter m_waits_;
  obs::MetricsRegistry::Counter m_applied_;
  obs::MetricsRegistry::Counter m_conflicts_;
  obs::MetricsRegistry::Counter m_stale_;
  obs::MetricsRegistry::Counter m_deadlocks_;
  obs::MetricsRegistry::Counter m_gave_up_;
  // Lazily acquired `replica.shard_applied{shard=K}` handles, indexed
  // by shard.
  std::vector<obs::MetricsRegistry::Counter> shard_applied_;
  TraceSink* trace_ = nullptr;
  std::size_t active_ = 0;
  /// Recycled job slots (unique_ptr for address stability) + free list.
  std::vector<std::unique_ptr<Job>> job_pool_;
  std::vector<std::uint32_t> free_jobs_;
  std::uint64_t next_serial_ = 1;
  /// ApplySharded's partition, one buffer per shard; each is empty
  /// between calls and keeps its capacity.
  std::vector<std::vector<UpdateRecord>> shard_records_;
  /// Recycled fan-in records + free list.
  std::vector<FanIn> fan_ins_;
  std::vector<std::uint32_t> free_fan_ins_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_REPLICA_APPLIER_H_
