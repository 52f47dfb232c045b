#ifndef TDR_WAL_GROUP_COMMITTER_H_
#define TDR_WAL_GROUP_COMMITTER_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "storage/types.h"
#include "txn/durability.h"
#include "util/sim_time.h"
#include "wal/wal.h"

namespace tdr::wal {

/// Metric handles shared by every node's committer, registered once by
/// WalSet: the only store of the WAL's counts.
struct WalMetrics {
  explicit WalMetrics(obs::MetricsRegistry* metrics);

  obs::MetricsRegistry::Counter records_appended;
  obs::MetricsRegistry::Counter flushes;
  obs::MetricsRegistry::Counter records_synced;
  obs::MetricsRegistry::HistogramHandle flush_records;      // batch size
  obs::MetricsRegistry::HistogramHandle flush_wait_micros;  // request→durable
  obs::MetricsRegistry::Counter crash_dropped_records;
  obs::MetricsRegistry::Counter crash_voided_waiters;
  obs::MetricsRegistry::Counter torn_tail_truncations;
  obs::MetricsRegistry::Counter torn_tail_bytes;
  obs::MetricsRegistry::Counter recovery_replayed;
  obs::MetricsRegistry::Counter recovery_segments;
  obs::MetricsRegistry::Counter catch_up_adopted;
};

/// Schedules WAL flushes for one node and parks commit completions
/// until their records are durable — the group-commit engine.
///
/// At most one flush is in flight per node. A flush is BeginFlush on
/// the Wal, then a `flush_latency` runtime event (tagged to the node,
/// like every other per-node event, so the thread backend runs it on
/// the node's worker), then CompleteFlush + waiter completion:
///
///   - kCommit: one waiter completes per flush, and the next flush
///     starts immediately — the serialized fsync-per-commit baseline.
///   - kGroup: a flush starts on a `group_window` timer after the first
///     append (or at once when `group_max_records` accumulate), and
///     completes EVERY waiter whose LSN it covered.
///
/// Crash() voids all parked waiters (commits must never leak locks),
/// bumps an epoch so an in-flight flush completion becomes a no-op, and
/// leaves the committer dead until Reset() at recovery.
class GroupCommitter {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kGroup;
    /// Simulated cost of one fsync.
    SimTime flush_latency = SimTime::Micros(500);
    /// kGroup: how long the first append may wait for company.
    SimTime group_window = SimTime::Micros(250);
    /// kGroup: flush immediately at this many pending records.
    std::size_t group_max_records = 64;
  };

  GroupCommitter(sim::Simulator* sim, NodeId node, Wal* wal, Options options,
                 WalMetrics* metrics);

  /// A record was appended (with or without a waiter): make sure a
  /// flush is armed so it becomes durable in bounded time.
  void NotifyAppend();

  /// Parks `done` until the log is durable past the current
  /// appended_lsn. Must follow at least one append since the durable
  /// line (the executor only requests durability for nodes it logged
  /// writes at).
  void RequestDurability(sim::Callback done);

  /// Voids every parked waiter (fired, in FIFO order), cancels the
  /// window timer, and deadens the committer.
  void Crash();

  /// Back to life after recovery (the Wal was re-opened by its owner).
  void Reset();

  bool crashed() const { return crashed_; }
  bool flush_in_flight() const { return in_flight_; }

 private:
  struct Waiter {
    std::uint64_t lsn = 0;
    SimTime since;
    sim::Callback done;
  };

  void ArmWindow();
  void MaybeStartFlush();
  void StartFlush();
  void OnFlushDurable();
  /// Fires parked waiters covered by durable_lsn: all of them under
  /// kGroup, at most one under kCommit. Returns how many fired.
  std::size_t FireCovered();

  sim::Simulator* sim_;
  NodeId node_;
  Wal* wal_;
  Options options_;
  WalMetrics* metrics_;

  // FIFO with a head cursor; compacted when drained so capacity is
  // retained and steady state allocates nothing.
  std::vector<Waiter> waiters_;
  std::size_t waiter_head_ = 0;

  bool in_flight_ = false;
  bool crashed_ = false;
  std::uint64_t epoch_ = 0;  // bumped at Crash(); guards completions
  sim::EventId window_event_ = sim::kInvalidEventId;
};

}  // namespace tdr::wal

#endif  // TDR_WAL_GROUP_COMMITTER_H_
