// Unit suite for the WAL building blocks: the CRC, the record and
// segment encodings, both segment backends, the per-node writer's
// flush/roll machinery, and the GroupCommitter's three durability
// modes driven directly by a simulator clock. Crash recovery has its
// own suite (wal_recovery_test.cc); the cluster-level differential
// checks live in wal_differential_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "storage/shard_map.h"
#include "wal/crc32c.h"
#include "wal/group_committer.h"
#include "wal/wal.h"
#include "wal/wal_file.h"
#include "wal/wal_format.h"
#include "wal/wal_recovery.h"
#include "wal/wal_set.h"

namespace tdr::wal {
namespace {

// Both CRC paths: Crc32c (the hardware path on an SSE4.2 host) and
// Crc32cTable (the fallback and the reference).
void ExpectKnownAnswer(const std::vector<std::uint8_t>& data,
                       std::uint32_t want) {
  EXPECT_EQ(Crc32c(data.data(), data.size()), want);
  EXPECT_EQ(Crc32cTable(0, data.data(), data.size()), want);
}

TEST(Crc32cTest, StandardCheckValue) {
  // The canonical CRC-32C check value over the ASCII digits.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cTable(0, "123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 (iSCSI) appendix B.4: 32-byte test vectors.
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  ExpectKnownAnswer(std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu);
  ExpectKnownAnswer(std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u);
  ExpectKnownAnswer(ascending, 0x46DD794Eu);
  ExpectKnownAnswer(descending, 0x113FDB5Cu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char* data = "the dangers of replication";
  const std::size_t n = 26;
  const std::uint32_t whole = Crc32c(data, n);
  for (std::size_t split = 0; split <= n; ++split) {
    std::uint32_t crc = Crc32c(data, split);
    crc = Crc32cExtend(crc, data + split, n - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  // Every length from 0 to 256 at every start offset mod 8, so the
  // hardware path's 8-byte steps and each 4/2/1-byte tail are covered
  // at every alignment; then every split of each, on both paths.
  std::mt19937 gen(7);
  std::vector<std::uint8_t> buf(256 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(gen());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint32_t want = Crc32cTable(0, p, len);
      ASSERT_EQ(Crc32c(p, len), want)
          << "offset " << offset << " length " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32cExtend(Crc32c(p, split), p + split, len - split),
                  want)
            << "offset " << offset << " length " << len << " split "
            << split;
        ASSERT_EQ(
            Crc32cTable(Crc32cTable(0, p, split), p + split, len - split),
            want)
            << "offset " << offset << " length " << len << " split "
            << split;
      }
    }
  }
}

WalRecord MakeScalarRecord() {
  WalRecord r;
  r.lsn = 7;
  r.txn = 1234;
  r.oid = 99;
  r.shard = 3;
  r.old_ts = Timestamp{41, 2};
  r.new_ts = Timestamp{42, 1};
  r.value = Value(-5);
  return r;
}

std::vector<std::uint8_t> Encode(const WalRecord& r) {
  std::vector<std::uint8_t> buf;
  AppendRecord(r.lsn, r.txn, r.oid, r.shard, r.old_ts, r.new_ts, r.value,
               &buf);
  return buf;
}

void ExpectEqualRecords(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.oid, b.oid);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.old_ts, b.old_ts);
  EXPECT_EQ(a.new_ts, b.new_ts);
  EXPECT_TRUE(a.value == b.value);
}

TEST(WalFormatTest, ScalarRoundtrip) {
  const WalRecord in = MakeScalarRecord();
  const std::vector<std::uint8_t> buf = Encode(in);
  WalRecord out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), buf.size());
  ExpectEqualRecords(in, out);
}

TEST(WalFormatTest, ListRoundtrip) {
  WalRecord in = MakeScalarRecord();
  in.value = Value(Value::List{-3, 0, 8, 1LL << 40});
  const std::vector<std::uint8_t> buf = Encode(in);
  WalRecord out;
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), buf.size());
  ExpectEqualRecords(in, out);
}

TEST(WalFormatTest, BackToBackRecordsDecodeInOrder) {
  WalRecord a = MakeScalarRecord();
  WalRecord b = MakeScalarRecord();
  b.lsn = 8;
  b.value = Value(Value::List{1, 2});
  std::vector<std::uint8_t> buf = Encode(a);
  AppendRecord(b.lsn, b.txn, b.oid, b.shard, b.old_ts, b.new_ts, b.value,
               &buf);
  WalRecord out;
  const std::size_t first = DecodeRecord(buf.data(), buf.size(), &out);
  ASSERT_GT(first, 0u);
  ExpectEqualRecords(a, out);
  const std::size_t second =
      DecodeRecord(buf.data() + first, buf.size() - first, &out);
  EXPECT_EQ(first + second, buf.size());
  ExpectEqualRecords(b, out);
}

TEST(WalFormatTest, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> buf = Encode(MakeScalarRecord());
  WalRecord out;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(DecodeRecord(buf.data(), len, &out), 0u) << "length " << len;
  }
}

TEST(WalFormatTest, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> pristine = Encode(MakeScalarRecord());
  WalRecord out;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> buf = pristine;
      buf[i] ^= static_cast<std::uint8_t>(1u << bit);
      // Flipping a header length bit may turn the record into a
      // "truncated" one; either way the decode must fail.
      EXPECT_EQ(DecodeRecord(buf.data(), buf.size(), &out), 0u)
          << "flipped bit " << bit << " of byte " << i;
    }
  }
}

TEST(WalFormatTest, SegmentHeaderRoundtrip) {
  std::vector<std::uint8_t> buf;
  EncodeSegmentHeader(/*node=*/2, /*segment=*/5, &buf);
  ASSERT_EQ(buf.size(), kSegmentHeaderSize);
  EXPECT_TRUE(CheckSegmentHeader(buf.data(), buf.size(), 2, 5));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 1, 5));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 2, 4));
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size() - 1, 2, 5));
  buf[0] ^= 0xFF;  // bad magic
  EXPECT_FALSE(CheckSegmentHeader(buf.data(), buf.size(), 2, 5));
}

// The on-disk format, pinned byte for byte from the layout comment in
// wal_format.h (the CRCs were computed independently of this code).
// Round trips alone would pass an encoder and a decoder that drifted
// together.
TEST(WalFormatTest, ScalarRecordMatchesGoldenBytes) {
  const std::vector<std::uint8_t> golden = {
      0x3D, 0x00, 0x00, 0x00,                          // payload_len 61
      0xA4, 0xB6, 0x3E, 0x87,                          // crc32c
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // lsn 7
      0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // txn 1234
      0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // oid 99
      0x03, 0x00, 0x00, 0x00,                          // shard 3
      0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // old_ts.counter 41
      0x02, 0x00, 0x00, 0x00,                          // old_ts.node 2
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // new_ts.counter 42
      0x01, 0x00, 0x00, 0x00,                          // new_ts.node 1
      0x00,                                            // kind: scalar
      0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // -5
  };
  EXPECT_EQ(Encode(MakeScalarRecord()), golden);
}

TEST(WalFormatTest, ListRecordMatchesGoldenBytes) {
  WalRecord in = MakeScalarRecord();
  in.value = Value(Value::List{-3, 0, 8, 1LL << 40});
  const std::vector<std::uint8_t> golden = {
      0x59, 0x00, 0x00, 0x00,                          // payload_len 89
      0x91, 0xD2, 0xEC, 0xD3,                          // crc32c
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // lsn 7
      0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // txn 1234
      0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // oid 99
      0x03, 0x00, 0x00, 0x00,                          // shard 3
      0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // old_ts.counter 41
      0x02, 0x00, 0x00, 0x00,                          // old_ts.node 2
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // new_ts.counter 42
      0x01, 0x00, 0x00, 0x00,                          // new_ts.node 1
      0x01,                                            // kind: list
      0x04, 0x00, 0x00, 0x00,                          // n 4
      0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // -3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 8
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,  // 1 << 40
  };
  EXPECT_EQ(Encode(in), golden);
}

// A store slot packs a timestamp into 47 bits of counter and 16 of
// node, and no clock issues one past them: a record that carries one is
// corrupt even under a valid CRC.
TEST(WalFormatTest, UnpackableTimestampIsRejected) {
  const std::vector<std::uint8_t> golden = Encode(MakeScalarRecord());
  // Byte offsets in the golden record above: old_ts, then new_ts.
  constexpr std::size_t kCounterAt[] = {36, 48};
  constexpr std::size_t kNodeAt[] = {44, 56};
  auto decode_with = [&golden](std::size_t at, std::uint64_t v,
                               std::size_t width) {
    std::vector<std::uint8_t> buf = golden;
    for (std::size_t i = 0; i < width; ++i) {
      buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    const std::uint32_t crc = Crc32c(buf.data() + 8, buf.size() - 8);
    for (std::size_t i = 0; i < 4; ++i) {
      buf[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    WalRecord out;
    return DecodeRecord(buf.data(), buf.size(), &out);
  };
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(decode_with(kCounterAt[k], kMaxTimestampCounter, 8),
              golden.size());
    EXPECT_EQ(decode_with(kCounterAt[k], kMaxTimestampCounter + 1, 8), 0u);
    EXPECT_EQ(decode_with(kNodeAt[k], kMaxTimestampNode, 4), golden.size());
    EXPECT_EQ(decode_with(kNodeAt[k], kMaxTimestampNode + 1, 4), 0u);
  }
}

TEST(WalFormatTest, SegmentHeaderMatchesGoldenBytes) {
  std::vector<std::uint8_t> buf = {0xEE};  // appends after what is there
  EncodeSegmentHeader(/*node=*/2, /*segment=*/5, &buf);
  const std::vector<std::uint8_t> golden = {
      0xEE,                                            // already there
      0x54, 0x44, 0x52, 0x57, 0x41, 0x4C, 0x30, 0x31,  // magic "TDRWAL01"
      0x02, 0x00, 0x00, 0x00,                          // node 2
      0x05, 0x00, 0x00, 0x00,                          // segment 5
  };
  EXPECT_EQ(buf, golden);
}

template <typename MakeBackend>
void BackendRoundtrip(MakeBackend make) {
  auto backend = make();
  EXPECT_EQ(backend->SegmentCount(0), 0u);
  {
    std::unique_ptr<WalFile> f = backend->Create(0, 0);
    const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6};
    f->Append(bytes, 4);
    f->Sync();
    f->Append(bytes + 4, 2);
    EXPECT_EQ(f->size(), 6u);
    EXPECT_EQ(f->synced_size(), 4u);
  }
  EXPECT_EQ(backend->SegmentCount(0), 1u);
  EXPECT_EQ(backend->SegmentCount(1), 0u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  // The torn-tail cut: drop the unsynced suffix.
  backend->TruncateSegment(0, 0, 4);
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  // Truncating longer than the file is a no-op.
  backend->TruncateSegment(0, 0, 100);
  ASSERT_TRUE(backend->ReadSegment(0, 0, &out));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_FALSE(backend->ReadSegment(0, 1, &out));
}

// A per-process scratch directory: ctest runs this binary under more
// than one entry at once, and concurrent runs must not share files.
std::string ScratchDir(const std::string& name) {
  return ::testing::TempDir() + name + "_" + std::to_string(getpid());
}

TEST(MemWalBackendTest, AppendSyncReadTruncate) {
  BackendRoundtrip(
      [] { return std::make_unique<MemWalBackend>(/*num_nodes=*/2); });
}

TEST(FileWalBackendTest, AppendSyncReadTruncate) {
  const std::string dir = ScratchDir("tdr_wal_backend_test");
  std::filesystem::remove_all(dir);
  BackendRoundtrip([&dir] {
    return std::make_unique<FileWalBackend>(dir, /*num_nodes=*/2);
  });
}

TEST(FileWalBackendTest, SegmentsSurviveBackendTeardown) {
  const std::string dir = ScratchDir("tdr_wal_reopen_test");
  std::filesystem::remove_all(dir);
  {
    FileWalBackend backend(dir, 1);
    std::unique_ptr<WalFile> f = backend.Create(0, 0);
    const std::uint8_t bytes[] = {9, 8, 7};
    f->Append(bytes, 3);
    f->Sync();
  }
  // A fresh backend over the same directory — the recovery scenario.
  FileWalBackend backend(dir, 1);
  EXPECT_EQ(backend.SegmentCount(0), 1u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(backend.ReadSegment(0, 0, &out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 8, 7}));
}

// Review regression: a fresh cluster handed a wal_dir that still holds
// a previous cluster's segments must not stack its LSN-1 log on top of
// them — the first recovery would replay the stale records into the
// store and then discard the new cluster's entire durable log as a
// torn tail (LSN 1 where the stale log's continuation was expected).
TEST(WalSetTest, FreshWalSetOnAReusedDirStartsACleanLog) {
  const std::string dir = ScratchDir("tdr_wal_reused_dir_test");
  std::filesystem::remove_all(dir);
  {
    // A previous cluster's log: three durable records in segment 0.
    FileWalBackend stale(dir, 1);
    Wal wal(0, &stale, Wal::Options{});
    wal.Open(1);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      wal.Append(i, i, 0, Timestamp{i - 1, 0}, Timestamp{i, 0},
                 Value(static_cast<std::int64_t>(i)));
      wal.CompleteFlush(wal.BeginFlush());
    }
  }
  sim::Simulator sim;
  ShardMap shards(/*db_size=*/8, /*num_shards=*/1);
  WalSet::Options opts;
  opts.mode = DurabilityMode::kCommit;
  opts.wal_dir = dir;
  obs::MetricsRegistry metrics;
  WalSet wals(&sim, /*num_nodes=*/1, &shards, opts, Rng(1, 2), &metrics);
  // The stale segments are gone: the new writer opened segment 0.
  EXPECT_EQ(wals.wal(0)->segment(), 0u);
  EXPECT_EQ(wals.backend()->SegmentCount(0), 1u);
  // Recovery of the fresh (record-free) log replays nothing.
  WalRecovery recovery(wals.backend());
  const RecoveryResult result = recovery.Recover(0, [](const WalRecord&) {
    ADD_FAILURE() << "stale record replayed into a fresh cluster";
  });
  EXPECT_EQ(result.records_replayed, 0u);
  EXPECT_EQ(result.next_lsn, 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriterTest, FlushAdvancesTheDurableLine) {
  MemWalBackend backend(1);
  Wal wal(0, &backend, Wal::Options{});
  wal.Open(/*next_lsn=*/1);
  EXPECT_EQ(wal.appended_lsn(), 0u);
  EXPECT_EQ(wal.Append(1, 10, 0, Timestamp::Zero(), Timestamp{1, 0},
                       Value(1)),
            1u);
  EXPECT_EQ(wal.Append(1, 11, 0, Timestamp::Zero(), Timestamp{2, 0},
                       Value(2)),
            2u);
  EXPECT_EQ(wal.pending_records(), 2u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  const std::uint64_t target = wal.BeginFlush();
  EXPECT_EQ(target, 2u);
  EXPECT_EQ(wal.pending_records(), 0u);
  EXPECT_EQ(wal.durable_lsn(), 0u);  // written, not yet synced
  EXPECT_GT(wal.file_size(), wal.synced_size());
  wal.CompleteFlush(target);
  EXPECT_EQ(wal.durable_lsn(), 2u);
  EXPECT_EQ(wal.file_size(), wal.synced_size());
}

TEST(WalWriterTest, EmptyFlushIsASyncBarrier) {
  MemWalBackend backend(1);
  Wal wal(0, &backend, Wal::Options{});
  wal.Open(1);
  wal.Append(1, 10, 0, Timestamp::Zero(), Timestamp{1, 0}, Value(1));
  wal.CompleteFlush(wal.BeginFlush());
  const std::uint64_t size = wal.file_size();
  const std::uint64_t target = wal.BeginFlush();  // nothing pending
  EXPECT_EQ(target, 1u);
  wal.CompleteFlush(target);
  EXPECT_EQ(wal.file_size(), size);
  EXPECT_EQ(wal.durable_lsn(), 1u);
}

TEST(WalWriterTest, RollsSegmentsAtTheCap) {
  MemWalBackend backend(1);
  Wal::Options opts;
  opts.segment_bytes = 256;  // a few records per segment
  Wal wal(0, &backend, opts);
  wal.Open(1);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    wal.Append(i, i, 0, Timestamp::Zero(),
               Timestamp{i, 0}, Value(static_cast<std::int64_t>(i)));
    wal.CompleteFlush(wal.BeginFlush());
  }
  EXPECT_GT(backend.SegmentCount(0), 2u);
  EXPECT_EQ(wal.segment(), backend.SegmentCount(0) - 1);
  // The roll invariant: every non-final segment ended fully synced (a
  // segment is rolled only between flushes), so only the newest
  // segment can ever be torn by a crash.
  for (std::uint32_t s = 0; s + 1 < backend.SegmentCount(0); ++s) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(backend.ReadSegment(0, s, &bytes));
    EXPECT_GT(bytes.size(), kSegmentHeaderSize) << "segment " << s;
  }
}

// -- GroupCommitter ---------------------------------------------------

struct CommitterRig {
  explicit CommitterRig(GroupCommitter::Options opts)
      : backend(1),
        wal(0, &backend, Wal::Options{}),
        metrics(&registry),
        committer(&sim, 0, &wal, opts, &metrics) {
    wal.Open(1);
  }

  std::uint64_t Append() {
    const std::uint64_t lsn =
        wal.Append(1, 10, 0, Timestamp::Zero(),
                   Timestamp{lsn_hint_++, 0}, Value(1));
    committer.NotifyAppend();
    return lsn;
  }

  void Request(std::vector<SimTime>* done_at) {
    committer.RequestDurability(
        [this, done_at]() { done_at->push_back(sim.Now()); });
  }

  sim::Simulator sim;
  MemWalBackend backend;
  Wal wal;
  obs::MetricsRegistry registry;
  WalMetrics metrics;
  GroupCommitter committer;
  std::uint64_t lsn_hint_ = 1;
};

GroupCommitter::Options Opts(DurabilityMode mode) {
  GroupCommitter::Options o;
  o.mode = mode;
  o.flush_latency = SimTime::Micros(500);
  o.group_window = SimTime::Micros(250);
  o.group_max_records = 64;
  return o;
}

TEST(GroupCommitterTest, CommitModeSerializesOneFlushPerWaiter) {
  CommitterRig rig(Opts(DurabilityMode::kCommit));
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    rig.Append();
    rig.Request(&done);
  }
  rig.sim.Run();
  // One serialized flush per commit: completions at 1x, 2x, 3x the
  // flush latency. Records 2 and 3 ride flush #2's bytes and flush #3
  // is a pure sync barrier, but each waiter pays for its own fsync.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], SimTime::Micros(500));
  EXPECT_EQ(done[1], SimTime::Micros(1000));
  EXPECT_EQ(done[2], SimTime::Micros(1500));
  EXPECT_EQ(rig.wal.durable_lsn(), 3u);
}

TEST(GroupCommitterTest, GroupModeCompletesTheWholeBatchTogether) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    rig.Append();
    rig.Request(&done);
  }
  rig.sim.Run();
  // One flush covers all three: window fires at 250us, sync lands at
  // 750us, every waiter completes at the same instant.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], SimTime::Micros(750));
  EXPECT_EQ(done[1], SimTime::Micros(750));
  EXPECT_EQ(done[2], SimTime::Micros(750));
  EXPECT_EQ(rig.wal.durable_lsn(), 3u);
}

TEST(GroupCommitterTest, GroupModeSizeCapSkipsTheWindow) {
  GroupCommitter::Options opts = Opts(DurabilityMode::kGroup);
  opts.group_max_records = 2;
  CommitterRig rig(opts);
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  rig.Append();
  rig.Request(&done);  // second record hits the cap: flush NOW
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(500));
  EXPECT_EQ(done[1], SimTime::Micros(500));
}

TEST(GroupCommitterTest, WindowFlushesAppendsWithNoWaiter) {
  // Replica-apply writes are logged without a commit waiting on them;
  // the window must still make them durable in bounded time.
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  rig.Append();
  rig.sim.Run();
  EXPECT_EQ(rig.wal.durable_lsn(), 1u);
  EXPECT_EQ(rig.sim.Now(), SimTime::Micros(750));
}

TEST(GroupCommitterTest, BackToBackBatchesRestartTheWindow) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  // Second commit arrives while the first flush is in flight: it parks
  // and rides the NEXT flush, which starts as soon as the first lands.
  rig.sim.ScheduleAt(SimTime::Micros(400), [&rig, &done]() {
    rig.Append();
    rig.Request(&done);
  });
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(750));
  EXPECT_EQ(done[1], SimTime::Micros(1250));  // 750 + another 500us sync
}

TEST(GroupCommitterTest, CrashVoidsWaitersAndInFlightFlush) {
  CommitterRig rig(Opts(DurabilityMode::kCommit));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);  // flush starts at t=0, would land at 500us
  rig.sim.ScheduleAt(SimTime::Micros(100), [&rig]() {
    rig.committer.Crash();
    rig.wal.DropPending();
    rig.wal.CloseForCrash();
  });
  rig.sim.Run();
  // The waiter fired (void, at crash time — commits never leak locks)…
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], SimTime::Micros(100));
  // …and the in-flight completion was voided by the epoch bump: the
  // durable line never moved.
  EXPECT_EQ(rig.wal.durable_lsn(), 0u);
  EXPECT_TRUE(rig.committer.crashed());
}

TEST(GroupCommitterTest, ResetRevivesTheCommitter) {
  CommitterRig rig(Opts(DurabilityMode::kGroup));
  std::vector<SimTime> done;
  rig.Append();
  rig.Request(&done);
  rig.sim.ScheduleAt(SimTime::Micros(100), [&rig]() {
    rig.committer.Crash();
    rig.wal.DropPending();
    rig.wal.CloseForCrash();
  });
  rig.sim.ScheduleAt(SimTime::Micros(1000), [&rig]() {
    rig.wal.Open(/*next_lsn=*/1);
    rig.committer.Reset();
  });
  rig.sim.ScheduleAt(SimTime::Micros(2000), [&rig, &done]() {
    rig.Append();
    rig.Request(&done);
  });
  rig.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], SimTime::Micros(100));   // voided by the crash
  EXPECT_EQ(done[1], SimTime::Micros(2750));  // real, after revival
  EXPECT_EQ(rig.wal.durable_lsn(), 1u);
}

}  // namespace
}  // namespace tdr::wal
