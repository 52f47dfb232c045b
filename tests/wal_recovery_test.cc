// Crash-recovery suite for the WAL reader: replay of clean logs,
// torn-tail truncation at EVERY byte offset a crash could leave
// behind, mid-log corruption, LSN-continuity enforcement, bad segment
// headers, multi-segment logs, and the idempotence property that a
// second recovery after a torn one finds a clean log (physical
// truncation). Cluster-level crash/restart convergence is covered by
// wal_differential_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "wal/wal.h"
#include "wal/wal_file.h"
#include "wal/wal_format.h"
#include "wal/wal_recovery.h"

namespace tdr::wal {
namespace {

/// Writes `count` records (one flush each, all synced) into node 0's
/// log and returns the byte offset of each record boundary in the
/// final segment: boundaries[0] is the segment-header end, and
/// boundaries[k] is the offset just past record k.
std::vector<std::uint64_t> WriteLog(MemWalBackend* backend,
                                    std::uint64_t count,
                                    std::uint64_t segment_bytes = 1 << 20) {
  Wal::Options opts;
  opts.segment_bytes = segment_bytes;
  Wal wal(0, backend, opts);
  wal.Open(/*next_lsn=*/1);
  std::vector<std::uint64_t> boundaries;
  boundaries.push_back(kSegmentHeaderSize);
  for (std::uint64_t i = 1; i <= count; ++i) {
    wal.Append(/*txn=*/100 + i, /*oid=*/i, /*shard=*/0,
               Timestamp{i - 1, 0}, Timestamp{i, 0},
               Value(static_cast<std::int64_t>(i)));
    wal.CompleteFlush(wal.BeginFlush());
    boundaries.push_back(wal.file_size());
  }
  return boundaries;
}

/// Replays node 0 and returns the collected records.
std::vector<WalRecord> Replay(WalRecovery* recovery, RecoveryResult* result) {
  std::vector<WalRecord> out;
  *result = recovery->Recover(
      0, [&out](const WalRecord& rec) { out.push_back(rec); });
  return out;
}

TEST(WalRecoveryTest, CleanLogReplaysEveryRecordInLsnOrder) {
  MemWalBackend backend(1);
  WriteLog(&backend, 5);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].oid, i + 1);
    EXPECT_EQ(records[i].new_ts, (Timestamp{i + 1, 0}));
    EXPECT_EQ(records[i].value.AsScalar(), static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(result.records_replayed, 5u);
  EXPECT_EQ(result.segments_read, 1u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.bytes_truncated, 0u);
  EXPECT_EQ(result.next_lsn, 6u);
  EXPECT_EQ(result.next_segment, 1u);
}

TEST(WalRecoveryTest, EmptyLogRecoversToLsnOne) {
  MemWalBackend backend(1);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(result.segments_read, 0u);
  EXPECT_EQ(result.next_lsn, 1u);
}

// The heart of the crash model: cut the segment at EVERY byte offset a
// torn fsync could leave behind and check that recovery replays
// exactly the whole records below the cut, truncates the segment back
// to that boundary, and reports a torn tail iff the cut was mid-record.
TEST(WalRecoveryTest, EveryCutOffsetTruncatesToTheLastWholeRecord) {
  MemWalBackend pristine(1);
  const std::vector<std::uint64_t> boundaries = WriteLog(&pristine, 4);
  const std::vector<std::uint8_t> full = *pristine.SegmentBytes(0, 0);
  for (std::uint64_t cut = kSegmentHeaderSize; cut <= full.size(); ++cut) {
    MemWalBackend backend(1);
    WriteLog(&backend, 4);
    backend.TruncateSegment(0, 0, cut);
    // How many whole records survive below the cut, and where the
    // durable prefix ends.
    std::uint64_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    const std::uint64_t boundary = boundaries[whole];
    WalRecovery recovery(&backend);
    RecoveryResult result;
    const std::vector<WalRecord> records = Replay(&recovery, &result);
    ASSERT_EQ(records.size(), whole) << "cut at " << cut;
    EXPECT_EQ(result.next_lsn, whole + 1) << "cut at " << cut;
    EXPECT_EQ(result.torn_tail, cut != boundary) << "cut at " << cut;
    EXPECT_EQ(result.bytes_truncated, cut - boundary) << "cut at " << cut;
    // Physical truncation: the segment now ends exactly at the last
    // valid record.
    EXPECT_EQ(backend.SegmentBytes(0, 0)->size(), boundary)
        << "cut at " << cut;
  }
}

TEST(WalRecoveryTest, SecondRecoveryAfterATornTailFindsACleanLog) {
  MemWalBackend backend(1);
  const std::vector<std::uint64_t> boundaries = WriteLog(&backend, 4);
  backend.TruncateSegment(0, 0, boundaries[3] + 5);  // mid-record 4
  WalRecovery recovery(&backend);
  RecoveryResult first;
  Replay(&recovery, &first);
  EXPECT_TRUE(first.torn_tail);
  EXPECT_EQ(first.records_replayed, 3u);
  RecoveryResult second;
  const std::vector<WalRecord> records = Replay(&recovery, &second);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_FALSE(second.torn_tail);
  EXPECT_EQ(second.bytes_truncated, 0u);
  EXPECT_EQ(second.next_lsn, first.next_lsn);
}

TEST(WalRecoveryTest, CorruptMiddleRecordCutsEverythingFromThere) {
  MemWalBackend backend(1);
  const std::vector<std::uint64_t> boundaries = WriteLog(&backend, 5);
  std::vector<std::uint8_t>* bytes = backend.SegmentBytes(0, 0);
  const std::uint64_t full = bytes->size();
  // Flip a payload byte inside record 3 (bit rot): records 4 and 5 are
  // intact on disk but unreachable — the log's prefix property.
  (*bytes)[boundaries[2] + kRecordHeaderSize + 3] ^= 0x01;
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.bytes_truncated, full - boundaries[2]);
  EXPECT_EQ(result.next_lsn, 3u);
}

TEST(WalRecoveryTest, LsnGapIsTreatedAsCorruption) {
  MemWalBackend backend(1);
  {
    std::vector<std::uint8_t> bytes;
    EncodeSegmentHeader(0, 0, &bytes);
    AppendRecord(1, 101, 1, 0, Timestamp::Zero(), Timestamp{1, 0}, Value(1),
                 &bytes);
    AppendRecord(2, 102, 2, 0, Timestamp::Zero(), Timestamp{2, 0}, Value(2),
                 &bytes);
    AppendRecord(4, 104, 4, 0, Timestamp::Zero(), Timestamp{4, 0}, Value(4),
                 &bytes);  // LSN 3 is missing
    std::unique_ptr<WalFile> f = backend.Create(0, 0);
    f->Append(bytes.data(), bytes.size());
    f->Sync();
  }
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 3u);
}

TEST(WalRecoveryTest, BadSegmentHeaderDropsTheWholeSegment) {
  MemWalBackend backend(1);
  WriteLog(&backend, 3);
  (*backend.SegmentBytes(0, 0))[0] ^= 0xFF;  // smash the magic
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 1u);
  EXPECT_EQ(result.next_segment, 0u);  // the emptied index is reused
  EXPECT_EQ(backend.SegmentBytes(0, 0)->size(), 0u);
  // Idempotence: the truncated-away segment is not torn a second time.
  RecoveryResult second;
  Replay(&recovery, &second);
  EXPECT_FALSE(second.torn_tail);
  EXPECT_EQ(second.next_segment, 0u);
}

// Regression (review): a torn (unsynced) segment header used to leave
// an empty segment stranded in the dense count — the revived writer
// opened the NEXT index, so every later recovery stopped at the empty
// segment and orphaned all durable records written after the restart,
// silently losing acknowledged commits and reusing LSNs. The writer
// must resume at RecoveryResult::next_segment instead.
TEST(WalRecoveryTest, WriteAfterTornHeaderRecoveryStaysRecoverable) {
  MemWalBackend backend(1);
  WriteLog(&backend, 4);
  {
    // Crash mid-roll: segment 1 got 7 bytes of its header, never
    // synced.
    std::vector<std::uint8_t> header;
    EncodeSegmentHeader(0, 1, &header);
    std::unique_ptr<WalFile> f = backend.Create(0, 1);
    f->Append(header.data(), 7);
  }
  WalRecovery recovery(&backend);
  RecoveryResult first;
  Replay(&recovery, &first);
  EXPECT_TRUE(first.torn_tail);
  EXPECT_EQ(first.next_lsn, 5u);
  EXPECT_EQ(first.next_segment, 1u);
  {
    // Restart: the writer resumes at the recovered (lsn, segment) and
    // commits two more records durably.
    Wal wal(0, &backend, Wal::Options{});
    wal.Open(first.next_lsn, first.next_segment);
    for (std::uint64_t i = 5; i <= 6; ++i) {
      wal.Append(100 + i, i, 0, Timestamp{i - 1, 0}, Timestamp{i, 0},
                 Value(static_cast<std::int64_t>(i)));
      wal.CompleteFlush(wal.BeginFlush());
    }
  }
  // Second crash/recovery: the post-restart records must be reachable.
  RecoveryResult second;
  const std::vector<WalRecord> records = Replay(&recovery, &second);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[5].lsn, 6u);
  EXPECT_EQ(records[5].oid, 6u);
  EXPECT_FALSE(second.torn_tail);
  EXPECT_EQ(second.next_lsn, 7u);
  EXPECT_EQ(second.next_segment, 2u);
}

TEST(WalRecoveryTest, EmptyTrailingSegmentIsReusedWithoutATornTail) {
  MemWalBackend backend(1);
  WriteLog(&backend, 3);
  // Rolled, then crashed before any byte of the new segment landed.
  (void)backend.Create(0, 1);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 4u);
  EXPECT_EQ(result.next_segment, 1u);
}

TEST(WalRecoveryTest, EmptyInteriorSegmentIsSkippedWhenLaterSegmentsContinue) {
  // On-disk state from before torn-segment index reuse: an empty
  // segment 0 with durable records stranded in segment 1. Recovery must
  // step over the hole instead of orphaning them.
  MemWalBackend backend(1);
  (void)backend.Create(0, 0);
  {
    std::vector<std::uint8_t> bytes;
    EncodeSegmentHeader(0, 1, &bytes);
    AppendRecord(1, 101, 1, 0, Timestamp::Zero(), Timestamp{1, 0}, Value(1),
                 &bytes);
    std::unique_ptr<WalFile> f = backend.Create(0, 1);
    f->Append(bytes.data(), bytes.size());
    f->Sync();
  }
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 2u);
  EXPECT_EQ(result.next_segment, 2u);
}

TEST(WalRecoveryTest, MultiSegmentLogReplaysAcrossRolls) {
  MemWalBackend backend(1);
  WriteLog(&backend, 24, /*segment_bytes=*/256);
  ASSERT_GT(backend.SegmentCount(0), 2u);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  ASSERT_EQ(records.size(), 24u);
  for (std::uint64_t i = 0; i < 24; ++i) EXPECT_EQ(records[i].lsn, i + 1);
  EXPECT_EQ(result.segments_read, backend.SegmentCount(0));
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 25u);
  EXPECT_EQ(result.next_segment, backend.SegmentCount(0));
}

TEST(WalRecoveryTest, TornTailInTheLastSegmentKeepsEarlierSegments) {
  MemWalBackend backend(1);
  WriteLog(&backend, 24, /*segment_bytes=*/256);
  const std::uint32_t last = backend.SegmentCount(0) - 1;
  ASSERT_GT(last, 1u);
  // Count the records that live in earlier segments, then tear the
  // last segment down to a partial first record.
  std::uint64_t earlier = 0;
  {
    WalRecovery probe(&backend);
    std::vector<std::uint8_t> seg;
    for (std::uint32_t s = 0; s < last; ++s) {
      ASSERT_TRUE(backend.ReadSegment(0, s, &seg));
      std::size_t off = kSegmentHeaderSize;
      WalRecord rec;
      std::size_t n;
      while ((n = DecodeRecord(seg.data() + off, seg.size() - off, &rec)) >
             0) {
        ++earlier;
        off += n;
      }
    }
  }
  backend.TruncateSegment(0, last, kSegmentHeaderSize + 7);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  EXPECT_EQ(records.size(), earlier);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, earlier + 1);
  // The segment kept its header (a durable prefix), so its index is
  // NOT reused.
  EXPECT_EQ(result.next_segment, last + 1);
  EXPECT_EQ(backend.SegmentBytes(0, last)->size(), kSegmentHeaderSize);
}

TEST(WalRecoveryTest, FileBackendRecoversTheSameLog) {
  // Per process: ctest runs this binary under more than one entry.
  const std::string dir = ::testing::TempDir() + "tdr_wal_recovery_test_" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  {
    FileWalBackend writer_backend(dir, 1);
    Wal wal(0, &writer_backend, Wal::Options{});
    wal.Open(1);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      wal.Append(100 + i, i, 0, Timestamp{i - 1, 0}, Timestamp{i, 0},
                 Value(static_cast<std::int64_t>(i)));
      wal.CompleteFlush(wal.BeginFlush());
    }
  }
  FileWalBackend backend(dir, 1);
  WalRecovery recovery(&backend);
  RecoveryResult result;
  const std::vector<WalRecord> records = Replay(&recovery, &result);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].new_ts, (Timestamp{4, 0}));
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_lsn, 5u);
}

}  // namespace
}  // namespace tdr::wal
