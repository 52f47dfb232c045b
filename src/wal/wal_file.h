#ifndef TDR_WAL_WAL_FILE_H_
#define TDR_WAL_WAL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "storage/types.h"

namespace tdr::wal {

/// One open, append-only WAL segment. The writer appends encoded
/// records and periodically syncs; `synced_size` is the durable prefix
/// — bytes a crash can never lose — while bytes past it are at the
/// mercy of the torn-tail model (WalBackend::CrashTruncate).
class WalFile {
 public:
  virtual ~WalFile() = default;

  virtual void Append(const std::uint8_t* data, std::size_t size) = 0;

  /// fsync equivalent: everything appended so far becomes durable.
  /// The LATENCY of a sync is modeled by the GroupCommitter (a
  /// simulated-time flush event), not here — this call is the instant
  /// the durability line moves.
  virtual void Sync() = 0;

  virtual std::uint64_t size() const = 0;
  virtual std::uint64_t synced_size() const = 0;
};

/// Per-node segment store: creates writable segments, reads them back
/// for recovery, and applies the crash model's torn-tail truncation.
/// Segment indices are dense per node (0, 1, 2, ...); only the
/// highest segment can ever hold unsynced bytes (the writer syncs a
/// segment full before rolling to the next).
class WalBackend {
 public:
  virtual ~WalBackend() = default;

  /// Creates (or truncates) segment `segment` of `node` and returns a
  /// writer for it. The backing bytes outlive the returned handle.
  virtual std::unique_ptr<WalFile> Create(NodeId node,
                                          std::uint32_t segment) = 0;

  /// Number of existing segments for `node` (dense from 0).
  virtual std::uint32_t SegmentCount(NodeId node) const = 0;

  /// Reads segment bytes into `*out` (replaced). False if absent.
  virtual bool ReadSegment(NodeId node, std::uint32_t segment,
                           std::vector<std::uint8_t>* out) const = 0;

  /// Truncates the segment to `keep_bytes` (no-op when it is already
  /// shorter). The crash model (WalSet::Crash) cuts only unsynced
  /// bytes: a sync'd byte is durable by contract. Recovery cuts at the
  /// first record it cannot read, which may lie inside the synced
  /// prefix when durable bytes were corrupted; the synced prefix then
  /// shrinks to the cut.
  virtual void TruncateSegment(NodeId node, std::uint32_t segment,
                               std::uint64_t keep_bytes) = 0;

  /// Deletes every segment of `node`. A fresh writer (a new cluster)
  /// starting over on a backend that may hold another log's segments —
  /// appending an LSN-1 log after stale segments would corrupt replay.
  virtual void Clear(NodeId node) = 0;
};

/// In-memory backend for the simulator: segments are byte vectors that
/// survive writer teardown and crashes, living as long as the backend
/// (the cluster's lifetime). Each segment vector reserves
/// `reserve_bytes` at birth, so steady-state appends never allocate.
class MemWalBackend : public WalBackend {
 public:
  explicit MemWalBackend(std::uint32_t num_nodes,
                         std::size_t reserve_bytes = 0);

  std::unique_ptr<WalFile> Create(NodeId node, std::uint32_t segment) override;
  std::uint32_t SegmentCount(NodeId node) const override;
  bool ReadSegment(NodeId node, std::uint32_t segment,
                   std::vector<std::uint8_t>* out) const override;
  void TruncateSegment(NodeId node, std::uint32_t segment,
                       std::uint64_t keep_bytes) override;
  void Clear(NodeId node) override;

  /// Test hook: direct mutable access to a segment's bytes (torn-tail
  /// suites overwrite bytes to corrupt records in place).
  std::vector<std::uint8_t>* SegmentBytes(NodeId node, std::uint32_t segment);

 private:
  struct Segment {
    std::vector<std::uint8_t> bytes;
    std::uint64_t synced = 0;
  };

  std::vector<std::vector<std::unique_ptr<Segment>>> segments_;  // [node]
  std::size_t reserve_bytes_;
};

/// File-system backend: segment `s` of node `n` lives at
/// `<dir>/wal-n<n>-s<s>.log`. Appends go through stdio with explicit
/// flushes on Sync; the torn-tail model truncates with POSIX
/// truncate(). The directory is created on first use. With `fsync`
/// true, Sync issues a real fdatasync on the segment — the honest
/// durability cost — instead of only advancing the modeled line.
class FileWalBackend : public WalBackend {
 public:
  FileWalBackend(std::string dir, std::uint32_t num_nodes,
                 bool fsync = false);

  std::unique_ptr<WalFile> Create(NodeId node, std::uint32_t segment) override;
  std::uint32_t SegmentCount(NodeId node) const override;
  bool ReadSegment(NodeId node, std::uint32_t segment,
                   std::vector<std::uint8_t>* out) const override;
  void TruncateSegment(NodeId node, std::uint32_t segment,
                       std::uint64_t keep_bytes) override;
  void Clear(NodeId node) override;

  std::string SegmentPath(NodeId node, std::uint32_t segment) const;

 private:
  std::string dir_;
  // Highest created segment + 1 per node, tracked so SegmentCount does
  // not re-probe the file system on the hot path.
  std::vector<std::uint32_t> created_;
  bool fsync_ = false;
};

}  // namespace tdr::wal

#endif  // TDR_WAL_WAL_FILE_H_
