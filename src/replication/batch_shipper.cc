#include "replication/batch_shipper.h"

#include <utility>

namespace tdr {

BatchShipper::BatchShipper(runtime::Runtime* rt, Network* net,
                           std::uint32_t num_nodes, std::string_view stream,
                           obs::MetricsRegistry* metrics, Options options,
                           DeliverFn deliver)
    : sim_(rt),
      net_(net),
      num_nodes_(num_nodes),
      options_(options),
      deliver_(std::move(deliver)),
      streams_(static_cast<std::size_t>(num_nodes) * num_nodes) {
  // Per-commit mode is a size cap of one: the cap is tested after an
  // Enqueue finishes appending, so each Enqueue ships as one batch.
  flush_at_ = options_.max_batch_updates;
  if (flush_at_ == 0 && options_.flush_window <= SimTime::Zero()) {
    flush_at_ = 1;
  }
  // Builders and pooled batches exchange their buffers on every flush
  // (TakeInto swaps), so both sides are held at a common capacity floor:
  // the flush size plus one transaction's worth of overshoot, or a
  // fixed working-set floor for window-only streams. Without it, buffer
  // capacities churn through the pool and windows keep re-growing
  // whichever buffer they draw — a steady allocation trickle instead of
  // a one-time ratchet.
  reserve_floor_ = flush_at_ > 0 ? flush_at_ + 32 : 160;
  for (Stream& s : streams_) s.builder.Reserve(reserve_floor_);
  std::vector<obs::Label> labels{{"stream", std::string(stream)}};
  m_batches_ = metrics->GetCounter("batch.shipped", labels);
  m_updates_ = metrics->GetCounter("batch.updates", labels);
  m_coalesced_ = metrics->GetCounter("batch.coalesced", labels);
  m_batch_size_ = metrics->GetHistogram("batch.size", labels);
  m_flush_delay_us_ = metrics->GetHistogram("batch.flush_delay_us", labels);
}

BatchShipper::~BatchShipper() {
  for (Stream& s : streams_) {
    if (s.flush_event != sim::kInvalidEventId) sim_->Cancel(s.flush_event);
  }
}

void BatchShipper::Enqueue(NodeId origin, NodeId dest,
                           const std::vector<UpdateRecord>& records) {
  Enqueue(origin, dest, records.data(), records.size());
}

void BatchShipper::Enqueue(NodeId origin, NodeId dest,
                           const UpdateRecord* records, std::size_t count) {
  if (count == 0 || origin == dest) return;
  Stream& s = StreamOf(origin, dest);
  bool was_empty = s.builder.empty();
  // With a flush size of one a batch is a single Enqueue's records —
  // one transaction's, one record per object — so there is nothing to
  // coalesce: skip the compaction index.
  const bool coalesce = options_.coalesce && flush_at_ != 1;
  for (std::size_t i = 0; i < count; ++i) {
    s.builder.Add(records[i], coalesce);
  }
  if (was_empty) {
    s.opened = sim_->Now();
    if (options_.flush_window > SimTime::Zero()) {
      // The flush reads the ORIGIN's stream state: tag it so the thread
      // backend runs it on the origin's worker.
      s.flush_event = sim_->ScheduleAfterNode(
          origin, options_.flush_window,
          [this, origin, dest] { Flush(origin, dest); });
    }
  }
  if (flush_at_ > 0 && s.builder.size() >= flush_at_) Flush(origin, dest);
}

void BatchShipper::Flush(NodeId origin, NodeId dest) {
  Stream& s = StreamOf(origin, dest);
  if (s.flush_event != sim::kInvalidEventId) {
    // No-op when called from inside the window event itself.
    sim_->Cancel(s.flush_event);
    s.flush_event = sim::kInvalidEventId;
  }
  if (s.builder.empty()) return;
  // The batch rides the network as a pooled lease: released (vector
  // capacity retained) when the message record is delivered or
  // dropped. The deliver handler may run more than once (duplicate
  // delivery), so it reads the lease without consuming it.
  net::SharedPool<UpdateBatch>::Lease batch = batch_pool_.Acquire();
  batch->updates.reserve(reserve_floor_);  // swap hands this to the builder
  s.builder.TakeInto(origin, dest, s.next_seq++, s.opened, &*batch);
  m_batches_.Increment();
  m_updates_.Increment(batch->size());
  m_coalesced_.Increment(batch->coalesced);
  m_batch_size_.Record(batch->size());
  m_flush_delay_us_.Record(
      static_cast<std::uint64_t>((sim_->Now() - batch->opened).micros()));
  net_->Send(origin, dest,
             [this, batch = std::move(batch)] { deliver_(*batch); });
}

void BatchShipper::FlushFrom(NodeId origin) {
  for (NodeId dest = 0; dest < num_nodes_; ++dest) Flush(origin, dest);
}

void BatchShipper::FlushAll() {
  for (NodeId origin = 0; origin < num_nodes_; ++origin) FlushFrom(origin);
}

std::size_t BatchShipper::PendingUpdates() const {
  std::size_t pending = 0;
  for (const Stream& s : streams_) pending += s.builder.size();
  return pending;
}

}  // namespace tdr
