#ifndef TDR_WAL_WAL_SET_H_
#define TDR_WAL_WAL_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/shard_map.h"
#include "txn/durability.h"
#include "util/rng.h"
#include "wal/group_committer.h"
#include "wal/wal.h"
#include "wal/wal_file.h"

namespace tdr::wal {

/// The cluster's write-ahead logs: one Wal writer + GroupCommitter per
/// node over a shared backend, implementing the executor's
/// DurabilityHook. Also owns the crash half of the durability model:
/// Crash(node) voids parked commits, drops unflushed appends, and tears
/// the unsynced file tail at a seeded random byte — the part of the
/// last fsync the disk may or may not have finished.
class WalSet : public DurabilityHook {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kOff;
    /// Empty: in-memory backend (MemWalBackend — the simulator
    /// default). Non-empty: FileWalBackend rooted at this directory.
    std::string wal_dir;
    SimTime flush_latency = SimTime::Micros(500);
    SimTime group_window = SimTime::Micros(250);
    std::size_t group_max_records = 64;
    std::uint64_t segment_bytes = 64 * 1024;
  };

  /// `rng` seeds the torn-tail draws; it is consumed only at crash
  /// events, so clean runs draw identically with or without it.
  WalSet(sim::Simulator* sim, std::uint32_t num_nodes,
         const ShardMap* shards, Options options, Rng rng,
         obs::MetricsRegistry* metrics);

  // DurabilityHook:
  bool Enabled(NodeId node) const override;
  void LogWrite(NodeId node, TxnId txn, ObjectId oid, const Timestamp& old_ts,
                const Timestamp& new_ts, const Value& value) override;
  void RequestCommitDurability(NodeId node, sim::Callback done) override;

  /// Crash model: void waiters, drop pending appends, torn-tail the
  /// unsynced suffix of the active segment.
  void Crash(NodeId node);

  /// Recovery handoff: re-arms `node`'s writer at `next_lsn` in
  /// segment `next_segment` (RecoveryResult::next_segment — reusing a
  /// truncated-away torn segment's index) and revives its committer.
  void ResetWriter(NodeId node, std::uint64_t next_lsn,
                   std::uint32_t next_segment);

  bool node_crashed(NodeId node) const { return crashed_[node] != 0; }
  WalBackend* backend() { return backend_.get(); }
  Wal* wal(NodeId node) { return wals_[node].get(); }
  WalMetrics& wal_metrics() { return metrics_; }
  const Options& options() const { return options_; }

 private:
  sim::Simulator* sim_;
  const ShardMap* shards_;
  Options options_;
  Rng rng_;
  WalMetrics metrics_;

  std::unique_ptr<WalBackend> backend_;
  std::vector<std::unique_ptr<Wal>> wals_;
  std::vector<std::unique_ptr<GroupCommitter>> committers_;
  std::vector<char> crashed_;
};

}  // namespace tdr::wal

#endif  // TDR_WAL_WAL_SET_H_
