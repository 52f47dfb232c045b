#ifndef TDR_WAL_WAL_FORMAT_H_
#define TDR_WAL_WAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/shard_map.h"
#include "storage/timestamp.h"
#include "storage/types.h"

namespace tdr::wal {

/// Binary WAL record layout. Every field is fixed-width little-endian
/// at a fixed offset (the number before each field, counted from the
/// record's first byte and then from the payload's):
///
///    0  u32 payload_len          # bytes after the 8-byte record header
///    4  u32 crc32c(payload)      # detects torn tails and bit rot
///       payload:
///    0    u64 lsn                # per-node log sequence number, from 1
///    8    u64 txn                # committing transaction id
///   16    u64 oid                # object written
///   24    u32 shard              # ShardMap::ShardOf(oid), for sharded replay
///   28    u64 old_ts.counter     # timestamp the write replaced
///   36    u32 old_ts.node
///   40    u64 new_ts.counter     # commit timestamp installed
///   48    u32 new_ts.node
///   52    u8  value_kind         # 0 = scalar, 1 = list
///   53    scalar: i64            # kind 0: payload_len 61
///   53    list:   u32 n, n*i64   # kind 1: payload_len 57 + 8n (sorted
///                                #   items, Value::List order)
///
/// A record is valid iff payload_len is in range, the CRC matches, and
/// the payload decodes completely. Recovery stops at the first invalid
/// record — everything before it is the durable prefix, everything at
/// and after it is a torn tail from a crash mid-flush.
struct WalRecord {
  std::uint64_t lsn = 0;
  TxnId txn = kInvalidTxnId;
  ObjectId oid = 0;
  ShardId shard = 0;
  Timestamp old_ts;
  Timestamp new_ts;
  Value value;
};

/// Fixed per-record header: payload_len + crc.
inline constexpr std::size_t kRecordHeaderSize = 8;

/// Segment files open with a 16-byte header, little-endian like a record:
///    0  u64 magic "TDRWAL01"
///    8  u32 node
///   12  u32 segment index
/// Recovery refuses a segment whose header does not match its path.
inline constexpr std::uint64_t kSegmentMagic = 0x3130'4C41'5752'4454ULL;
inline constexpr std::size_t kSegmentHeaderSize = 16;

/// Appends the encoded segment header to `*out`.
void EncodeSegmentHeader(NodeId node, std::uint32_t segment,
                         std::vector<std::uint8_t>* out);

/// Validates the segment header at the start of `data`. Returns true
/// iff `size` covers it and magic/node/segment all match.
bool CheckSegmentHeader(const std::uint8_t* data, std::size_t size,
                        NodeId node, std::uint32_t segment);

/// Appends one encoded record to `*out` (the writer's pending buffer;
/// capacity is retained across flushes, so steady state never
/// allocates). Field form rather than a WalRecord so the commit path
/// encodes straight from the executor's write entries without building
/// an intermediate struct.
void AppendRecord(std::uint64_t lsn, TxnId txn, ObjectId oid, ShardId shard,
                  const Timestamp& old_ts, const Timestamp& new_ts,
                  const Value& value, std::vector<std::uint8_t>* out);

/// Decodes the record at `data`. Returns the encoded size consumed on
/// success; 0 if the bytes do not hold one complete, CRC-valid record
/// (truncated header, truncated payload, CRC mismatch, or malformed
/// payload, including a timestamp past its limits: Timestamp::Fits) —
/// the recovery reader's stop condition.
std::size_t DecodeRecord(const std::uint8_t* data, std::size_t size,
                         WalRecord* out);

}  // namespace tdr::wal

#endif  // TDR_WAL_WAL_FORMAT_H_
