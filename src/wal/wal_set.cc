#include "wal/wal_set.h"

#include <cassert>
#include <utility>

namespace tdr::wal {

WalSet::WalSet(sim::Simulator* sim, std::uint32_t num_nodes,
               const ShardMap* shards, Options options, Rng rng,
               obs::MetricsRegistry* metrics)
    : sim_(sim),
      shards_(shards),
      options_(std::move(options)),
      rng_(rng),
      metrics_(metrics),
      crashed_(num_nodes, 0) {
  assert(options_.mode != DurabilityMode::kOff);
  if (options_.wal_dir.empty()) {
    backend_ = std::make_unique<MemWalBackend>(
        num_nodes, static_cast<std::size_t>(options_.segment_bytes));
  } else {
    backend_ = std::make_unique<FileWalBackend>(options_.wal_dir, num_nodes);
  }
  Wal::Options wal_options;
  wal_options.segment_bytes = options_.segment_bytes;
  GroupCommitter::Options gc_options;
  gc_options.mode = options_.mode;
  gc_options.flush_latency = options_.flush_latency;
  gc_options.group_window = options_.group_window;
  gc_options.group_max_records = options_.group_max_records;
  wals_.reserve(num_nodes);
  committers_.reserve(num_nodes);
  for (NodeId node = 0; node < num_nodes; ++node) {
    // A WalSet is a NEW cluster's log. A reused wal_dir can hold a
    // previous cluster's segments (FileWalBackend probes them so
    // recovery-only readers can see them); arming a fresh LSN-1 writer
    // on top would make the first recovery replay the stale records
    // into the store and then discard this cluster's entire log as a
    // torn tail. Start from nothing instead.
    backend_->Clear(node);
    wals_.push_back(std::make_unique<Wal>(node, backend_.get(), wal_options));
    wals_.back()->Open(/*next_lsn=*/1);
    committers_.push_back(std::make_unique<GroupCommitter>(
        sim_, node, wals_.back().get(), gc_options, &metrics_));
  }
}

bool WalSet::Enabled(NodeId node) const {
  (void)node;
  return true;
}

void WalSet::LogWrite(NodeId node, TxnId txn, ObjectId oid,
                      const Timestamp& old_ts, const Timestamp& new_ts,
                      const Value& value) {
  if (crashed_[node] != 0) {
    // In-flight work at a crashed node still "commits" in memory fiction
    // but logs nothing — the records die with the node.
    metrics_.crash_dropped_records.Increment();
    return;
  }
  wals_[node]->Append(txn, oid, shards_->ShardOf(oid), old_ts, new_ts, value);
  committers_[node]->NotifyAppend();
}

void WalSet::RequestCommitDurability(NodeId node, sim::Callback done) {
  if (crashed_[node] != 0) {
    // Fire void, but from a fresh event: completing a commit inside the
    // executor's own Commit frame would re-enter it.
    sim_->ScheduleAfterNode(node, SimTime(), std::move(done));
    return;
  }
  committers_[node]->RequestDurability(std::move(done));
}

void WalSet::Crash(NodeId node) {
  assert(crashed_[node] == 0);
  crashed_[node] = 1;
  committers_[node]->Crash();
  Wal* wal = wals_[node].get();
  const std::size_t dropped = wal->pending_records();
  if (dropped > 0) metrics_.crash_dropped_records.Increment(dropped);
  wal->DropPending();
  // Torn tail: of the bytes the last (incomplete) fsync covered, the
  // disk finished a random prefix. Synced bytes are contractually safe.
  const std::uint64_t size = wal->file_size();
  const std::uint64_t synced = wal->synced_size();
  const std::uint32_t segment = wal->segment();
  wal->CloseForCrash();
  const std::uint64_t unsynced = size - synced;
  const std::uint64_t keep = synced + rng_.UniformInt(unsynced + 1);
  if (keep < size) {
    metrics_.torn_tail_truncations.Increment();
    metrics_.torn_tail_bytes.Increment(size - keep);
    backend_->TruncateSegment(node, segment, keep);
  }
}

void WalSet::ResetWriter(NodeId node, std::uint64_t next_lsn,
                         std::uint32_t next_segment) {
  assert(crashed_[node] != 0);
  crashed_[node] = 0;
  wals_[node]->Open(next_lsn, next_segment);
  committers_[node]->Reset();
}

}  // namespace tdr::wal
