#include "wal/group_committer.h"

#include <cassert>
#include <utility>

namespace tdr::wal {

WalMetrics::WalMetrics(obs::MetricsRegistry* metrics)
    : records_appended(metrics->GetCounter("wal.records_appended")),
      flushes(metrics->GetCounter("wal.flushes")),
      records_synced(metrics->GetCounter("wal.records_synced")),
      flush_records(metrics->GetHistogram("wal.flush_records")),
      flush_wait_micros(metrics->GetHistogram("wal.flush_wait_micros")),
      crash_dropped_records(metrics->GetCounter("wal.crash_dropped_records")),
      crash_voided_waiters(metrics->GetCounter("wal.crash_voided_waiters")),
      torn_tail_truncations(metrics->GetCounter("wal.torn_tail_truncations")),
      torn_tail_bytes(metrics->GetCounter("wal.torn_tail_bytes")),
      recovery_replayed(metrics->GetCounter("wal.recovery_replayed")),
      recovery_segments(metrics->GetCounter("wal.recovery_segments")),
      catch_up_adopted(metrics->GetCounter("wal.catch_up_adopted")) {}

GroupCommitter::GroupCommitter(sim::Simulator* sim, NodeId node, Wal* wal,
                               Options options, WalMetrics* metrics)
    : sim_(sim), node_(node), wal_(wal), options_(options), metrics_(metrics) {
  waiters_.reserve(16);
}

void GroupCommitter::NotifyAppend() {
  if (crashed_) return;
  metrics_->records_appended.Increment();
  if (in_flight_) return;  // the completion restarts or re-arms
  if (options_.mode == DurabilityMode::kGroup &&
      wal_->pending_records() >= options_.group_max_records) {
    MaybeStartFlush();
    return;
  }
  // Even under kCommit, waiterless appends (replica applies) get a
  // background window so unsynced bytes are bounded in time.
  ArmWindow();
}

void GroupCommitter::RequestDurability(sim::Callback done) {
  assert(!crashed_ && "WalSet void-fires requests at crashed nodes");
  // The request follows an append in the same runtime event, so the
  // durable line cannot have caught up in between.
  assert(wal_->appended_lsn() > wal_->durable_lsn());
  waiters_.push_back(
      Waiter{wal_->appended_lsn(), sim_->Now(), std::move(done)});
  if (in_flight_) return;
  if (options_.mode == DurabilityMode::kCommit) {
    MaybeStartFlush();
    return;
  }
  if (wal_->pending_records() >= options_.group_max_records) {
    MaybeStartFlush();
    return;
  }
  ArmWindow();
}

void GroupCommitter::ArmWindow() {
  if (window_event_ != sim::kInvalidEventId) return;
  const SimTime window = options_.mode == DurabilityMode::kGroup
                             ? options_.group_window
                             : options_.flush_latency;
  const std::uint64_t epoch = epoch_;
  window_event_ = sim_->ScheduleAfterNode(node_, window, [this, epoch]() {
    if (epoch != epoch_) return;
    window_event_ = sim::kInvalidEventId;
    MaybeStartFlush();
  });
}

void GroupCommitter::MaybeStartFlush() {
  if (crashed_ || in_flight_) return;
  if (wal_->appended_lsn() <= wal_->durable_lsn()) return;  // nothing new
  StartFlush();
}

void GroupCommitter::StartFlush() {
  if (window_event_ != sim::kInvalidEventId) {
    sim_->Cancel(window_event_);
    window_event_ = sim::kInvalidEventId;
  }
  in_flight_ = true;
  const std::size_t records = wal_->pending_records();
  const std::uint64_t target = wal_->BeginFlush();
  metrics_->flushes.Increment();
  metrics_->flush_records.Record(records);
  metrics_->records_synced.Increment(records);
  const std::uint64_t epoch = epoch_;
  // Two events: the sync after the flush latency, then, at the same
  // virtual time, advancing the durable line and firing parked commits.
  // The split fixes the event count and same-time order that the WAL
  // baselines pin down.
  sim_->ScheduleAfterNode(
      node_, options_.flush_latency, [this, epoch, target]() {
        if (epoch != epoch_) return;  // crashed mid-flush
        wal_->SyncFile();
        sim_->ScheduleAfterNode(
            node_, SimTime::Zero(), [this, epoch, target]() {
              if (epoch != epoch_) return;
              wal_->CompleteFlush(target);
              in_flight_ = false;
              OnFlushDurable();
            });
      });
}

void GroupCommitter::OnFlushDurable() {
  FireCovered();
  if (waiter_head_ < waiters_.size()) {
    // Parked commits are waiting on records still in the pending buffer
    // (or, under kCommit, on their one-flush-each turn): keep the pipe
    // saturated.
    StartFlush();
    return;
  }
  if (wal_->appended_lsn() > wal_->durable_lsn()) {
    // Waiterless appends arrived during the flush; sweep them up on the
    // next window.
    ArmWindow();
  }
}

std::size_t GroupCommitter::FireCovered() {
  const std::uint64_t durable = wal_->durable_lsn();
  std::size_t fired = 0;
  while (waiter_head_ < waiters_.size() &&
         waiters_[waiter_head_].lsn <= durable) {
    Waiter& w = waiters_[waiter_head_];
    ++waiter_head_;
    metrics_->flush_wait_micros.Record(
        static_cast<std::uint64_t>((sim_->Now() - w.since).micros()));
    sim::Callback done = std::move(w.done);
    done();
    ++fired;
    if (options_.mode == DurabilityMode::kCommit) break;  // one per flush
  }
  if (waiter_head_ == waiters_.size()) {
    waiters_.clear();  // capacity retained
    waiter_head_ = 0;
  }
  return fired;
}

void GroupCommitter::Crash() {
  assert(!crashed_);
  crashed_ = true;
  ++epoch_;  // in-flight completion and armed window become no-ops
  window_event_ = sim::kInvalidEventId;
  in_flight_ = false;
  // Commits parked on durability must still finish (void) — a crashed
  // node's locks and inflight slots are not leaked. FIFO order keeps
  // both backends bit-identical.
  std::size_t voided = 0;
  while (waiter_head_ < waiters_.size()) {
    sim::Callback done = std::move(waiters_[waiter_head_].done);
    ++waiter_head_;
    done();
    ++voided;
  }
  waiters_.clear();
  waiter_head_ = 0;
  metrics_->crash_voided_waiters.Increment(voided);
}

void GroupCommitter::Reset() {
  assert(crashed_);
  crashed_ = false;
}

}  // namespace tdr::wal
