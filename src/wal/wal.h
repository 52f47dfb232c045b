#ifndef TDR_WAL_WAL_H_
#define TDR_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/timestamp.h"
#include "storage/types.h"
#include "wal/wal_file.h"
#include "wal/wal_format.h"

namespace tdr::wal {

/// One node's write-ahead log writer.
///
/// Appends encode straight into a reusable pending buffer (capacity
/// retained across flushes — the steady-state append path allocates
/// nothing) and earn monotonically increasing LSNs. A flush moves the
/// pending bytes into the active segment file; when the flush's sync
/// lands, the durable line (`durable_lsn`) advances. The GroupCommitter
/// decides WHEN to flush and models the sync latency; this class only
/// owns bytes, LSNs and segment rolling.
///
/// Flushes are serialized by the caller (at most one in flight), which
/// gives the invariant the torn-tail model relies on: only the newest
/// segment can ever hold unsynced bytes.
class Wal {
 public:
  struct Options {
    /// Roll to a new segment when the active file would exceed this.
    std::uint64_t segment_bytes = 64 * 1024;
  };

  Wal(NodeId node, WalBackend* backend, Options options);

  /// Arms the writer to issue LSNs from `next_lsn` and opens (or
  /// re-creates) segment `segment`. After crash recovery the caller
  /// passes RecoveryResult::next_segment, which REUSES the index of a
  /// torn-header segment that recovery truncated to nothing — opening
  /// the next index instead would strand an empty segment in the dense
  /// count and stop every later recovery short of the records written
  /// after restart.
  void Open(std::uint64_t next_lsn, std::uint32_t segment);

  /// Convenience for a fresh log: opens the next unused index
  /// (backend->SegmentCount(node)).
  void Open(std::uint64_t next_lsn);

  /// Encodes one record into the pending buffer; returns its LSN.
  std::uint64_t Append(TxnId txn, ObjectId oid, ShardId shard,
                       const Timestamp& old_ts, const Timestamp& new_ts,
                       const Value& value);

  /// Writes the pending bytes to the active segment (rolling first if
  /// they would overflow it) and returns the flush target — the highest
  /// LSN the flush will make durable. Caller must not start another
  /// flush until CompleteFlush. A flush with nothing pending is legal
  /// (a pure sync barrier).
  std::uint64_t BeginFlush();

  /// The expensive half of a flush: syncs the file (a real fdatasync
  /// under FileWalBackend's fsync knob). Touches only this node's file.
  /// Idempotent; CompleteFlush re-syncs harmlessly after it.
  void SyncFile();

  /// The flush's sync landed: everything written is durable.
  void CompleteFlush(std::uint64_t target_lsn);

  /// Crash support: unflushed appends die with the node.
  void DropPending();
  /// Abandons the file handle (backend bytes survive for recovery).
  void CloseForCrash();

  bool open() const { return file_ != nullptr; }
  std::uint32_t segment() const { return segment_; }
  std::uint64_t appended_lsn() const { return appended_lsn_; }
  std::uint64_t durable_lsn() const { return durable_lsn_; }
  std::size_t pending_records() const { return pending_records_; }
  std::size_t pending_bytes() const { return pending_.size(); }
  std::uint64_t file_size() const {
    return file_ != nullptr ? file_->size() : 0;
  }
  std::uint64_t synced_size() const {
    return file_ != nullptr ? file_->synced_size() : 0;
  }

 private:
  void OpenSegment(std::uint32_t segment);

  NodeId node_;
  WalBackend* backend_;
  Options options_;

  std::unique_ptr<WalFile> file_;
  std::uint32_t segment_ = 0;

  std::vector<std::uint8_t> pending_;  // encoded, not yet written to file
  std::size_t pending_records_ = 0;
  std::vector<std::uint8_t> header_scratch_;

  std::uint64_t next_lsn_ = 1;
  std::uint64_t appended_lsn_ = 0;  // highest LSN in buffer or file
  std::uint64_t durable_lsn_ = 0;   // highest LSN a crash cannot lose
};

}  // namespace tdr::wal

#endif  // TDR_WAL_WAL_H_
