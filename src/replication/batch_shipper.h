#ifndef TDR_REPLICATION_BATCH_SHIPPER_H_
#define TDR_REPLICATION_BATCH_SHIPPER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/message_pool.h"
#include "net/network.h"
#include "net/update_batch.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "util/sim_time.h"

namespace tdr {

/// The batched log-shipping data plane shared by the lazy replication
/// schemes: one coalescing stream per (origin, destination) pair.
///
/// It is the only code that sends UpdateRecords: every lazy refresh
/// (lazy group, lazy master, two-tier local transactions) is enqueued
/// here. With `flush_window` and `max_batch_updates` both zero (the
/// schemes' default) each Enqueue ships at once as its own batch — one
/// replica-update message per committed transaction per destination,
/// the paper's Figure-4 plane. Otherwise committed updates park in a
/// per-destination UpdateBatchBuilder, and a stream flushes when EITHER
///   * `flush_window` has elapsed since its oldest pending update
///     (bounded staleness — the model prices this exactly like a
///     mobile node's Disconnect_Time, Eq. 18), or
///   * it holds `max_batch_updates` updates (size cap, bounding memory
///     and receiver lock-hold time).
/// Flushing stamps a sequence number and ships ONE message through the
/// simulated network; the scheme's deliver callback then applies it at
/// the destination (atomically per shard, via ReplicaApplier).
///
/// Everything is driven by the deterministic simulator clock: flush
/// events are ordinary sim events, so batched runs replay bit-identical
/// and sweep at any thread count. Crash/partition interplay comes free
/// from Network semantics — a flushed batch from a crashed or
/// partitioned origin queues in the outbox / on the cut link like any
/// other message (the stream is the recovery log).
class BatchShipper {
 public:
  struct Options {
    /// Max time an update waits before its stream flushes. Zero
    /// disables the timer (flush on size cap / FlushAll only).
    SimTime flush_window = SimTime::Millis(50);
    /// Flush as soon as a stream holds this many updates (after
    /// compaction). Zero = unbounded, window-only flushing. Zero here
    /// AND a zero window = per-commit shipping: every Enqueue flushes.
    std::size_t max_batch_updates = 128;
    /// Per-object chain compaction within a window (see UpdateBatch).
    bool coalesce = true;
  };

  /// Runs at the DESTINATION at delivery time.
  using DeliverFn = std::function<void(const UpdateBatch&)>;

  /// `stream` labels this shipper's metrics (e.g. "lazy-group"), which
  /// `metrics` holds. `rt`, `net` and `metrics` must outlive the shipper.
  BatchShipper(runtime::Runtime* rt, Network* net, std::uint32_t num_nodes,
               std::string_view stream, obs::MetricsRegistry* metrics,
               Options options, DeliverFn deliver);

  /// Cancels pending flush events (they capture `this`).
  ~BatchShipper();

  BatchShipper(const BatchShipper&) = delete;
  BatchShipper& operator=(const BatchShipper&) = delete;

  /// Parks `records` on the (origin, dest) stream, arming the window
  /// timer on first use and flushing immediately at the size cap (or
  /// at once, in per-commit mode).
  void Enqueue(NodeId origin, NodeId dest,
               const std::vector<UpdateRecord>& records);

  /// Span form: parks `count` records starting at `records` (the
  /// allocation-free path for shipping a slice of a commit's updates).
  void Enqueue(NodeId origin, NodeId dest, const UpdateRecord* records,
               std::size_t count);

  /// Ships the (origin, dest) stream's pending batch now, if any.
  void Flush(NodeId origin, NodeId dest);

  /// Ships every pending batch of `origin`.
  void FlushFrom(NodeId origin);

  /// Ships every pending batch (end-of-window drain; also what a final
  /// convergence check must call before comparing replicas).
  void FlushAll();

  const Options& options() const { return options_; }
  std::uint64_t batches_shipped() const { return m_batches_.value(); }
  std::uint64_t updates_shipped() const { return m_updates_.value(); }
  std::uint64_t updates_coalesced() const { return m_coalesced_.value(); }
  /// Updates currently parked across all streams.
  std::size_t PendingUpdates() const;

 private:
  struct Stream {
    UpdateBatchBuilder builder;
    SimTime opened;
    sim::EventId flush_event = sim::kInvalidEventId;
    std::uint64_t next_seq = 1;
  };

  Stream& StreamOf(NodeId origin, NodeId dest) {
    return streams_[static_cast<std::size_t>(origin) * num_nodes_ + dest];
  }

  runtime::Runtime* sim_;
  Network* net_;
  std::uint32_t num_nodes_;
  Options options_;
  DeliverFn deliver_;
  // Stream size that triggers a flush at the end of an Enqueue: the
  // size cap, 1 in per-commit mode, 0 (never) for window-only streams.
  std::size_t flush_at_ = 0;
  // Common capacity floor for builders and pooled batches (they swap
  // buffers on flush); see the constructor.
  std::size_t reserve_floor_ = 0;
  std::vector<Stream> streams_;  // n*n, indexed origin*n + dest
  // Shipped batches ride the network as pooled leases (released when
  // the message is delivered or dropped), not per-flush allocations.
  net::SharedPool<UpdateBatch> batch_pool_;
  // Cached handles: the only store of the shipper's counts.
  obs::MetricsRegistry::Counter m_batches_;
  obs::MetricsRegistry::Counter m_updates_;
  obs::MetricsRegistry::Counter m_coalesced_;
  obs::MetricsRegistry::HistogramHandle m_batch_size_;
  obs::MetricsRegistry::HistogramHandle m_flush_delay_us_;
};

}  // namespace tdr

#endif  // TDR_REPLICATION_BATCH_SHIPPER_H_
