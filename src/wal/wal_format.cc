#include "wal/wal_format.h"

#include <bit>
#include <cstring>

#include "wal/crc32c.h"

namespace tdr::wal {

namespace {

// Field offsets of the layout in wal_format.h, shared by the encoders
// and the decoders. Record header, from the record's first byte:
constexpr std::size_t kLenAt = 0;
constexpr std::size_t kCrcAt = 4;
// Payload, from its first byte (kRecordHeaderSize into the record):
constexpr std::size_t kLsnAt = 0;
constexpr std::size_t kTxnAt = 8;
constexpr std::size_t kOidAt = 16;
constexpr std::size_t kShardAt = 24;
constexpr std::size_t kOldCounterAt = 28;
constexpr std::size_t kOldNodeAt = 36;
constexpr std::size_t kNewCounterAt = 40;
constexpr std::size_t kNewNodeAt = 48;
constexpr std::size_t kKindAt = 52;
// The value: a scalar's i64, or a list's u32 count and then its items.
constexpr std::size_t kValueAt = 53;
constexpr std::size_t kListItemsAt = kValueAt + 4;
// Segment header, from the segment's first byte:
constexpr std::size_t kMagicAt = 0;
constexpr std::size_t kNodeAt = 8;
constexpr std::size_t kSegmentAt = 12;

constexpr std::uint8_t kScalarKind = 0;
constexpr std::uint8_t kListKind = 1;

// Little-endian loads and stores at any alignment: one move each on a
// little-endian host.
void StoreU32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, 4);
}

void StoreU64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

void EncodeSegmentHeader(NodeId node, std::uint32_t segment,
                         std::vector<std::uint8_t>* out) {
  const std::size_t at = out->size();
  out->resize(at + kSegmentHeaderSize);
  std::uint8_t* h = out->data() + at;
  StoreU64(h + kMagicAt, kSegmentMagic);
  StoreU32(h + kNodeAt, node);
  StoreU32(h + kSegmentAt, segment);
}

bool CheckSegmentHeader(const std::uint8_t* data, std::size_t size,
                        NodeId node, std::uint32_t segment) {
  if (size < kSegmentHeaderSize) return false;
  return LoadU64(data + kMagicAt) == kSegmentMagic &&
         LoadU32(data + kNodeAt) == node &&
         LoadU32(data + kSegmentAt) == segment;
}

void AppendRecord(std::uint64_t lsn, TxnId txn, ObjectId oid, ShardId shard,
                  const Timestamp& old_ts, const Timestamp& new_ts,
                  const Value& value, std::vector<std::uint8_t>* out) {
  const bool scalar = value.is_scalar();
  const std::size_t payload_len =
      scalar ? kValueAt + 8 : kListItemsAt + 8 * value.AsList().size();
  // One resize (the writer's buffer keeps its capacity, so steady state
  // never allocates), then every field is stored at its offset.
  const std::size_t at = out->size();
  out->resize(at + kRecordHeaderSize + payload_len);
  std::uint8_t* record = out->data() + at;
  std::uint8_t* p = record + kRecordHeaderSize;
  StoreU64(p + kLsnAt, lsn);
  StoreU64(p + kTxnAt, txn);
  StoreU64(p + kOidAt, oid);
  StoreU32(p + kShardAt, shard);
  StoreU64(p + kOldCounterAt, old_ts.counter());
  StoreU32(p + kOldNodeAt, old_ts.node());
  StoreU64(p + kNewCounterAt, new_ts.counter());
  StoreU32(p + kNewNodeAt, new_ts.node());
  if (scalar) {
    p[kKindAt] = kScalarKind;
    StoreU64(p + kValueAt, static_cast<std::uint64_t>(value.AsScalar()));
  } else {
    p[kKindAt] = kListKind;
    const Value::List& list = value.AsList();
    StoreU32(p + kValueAt, static_cast<std::uint32_t>(list.size()));
    std::uint8_t* item = p + kListItemsAt;
    for (std::int64_t v : list) {
      StoreU64(item, static_cast<std::uint64_t>(v));
      item += 8;
    }
  }
  StoreU32(record + kLenAt, static_cast<std::uint32_t>(payload_len));
  StoreU32(record + kCrcAt, Crc32c(p, payload_len));
}

std::size_t DecodeRecord(const std::uint8_t* data, std::size_t size,
                         WalRecord* out) {
  if (size < kRecordHeaderSize) return 0;
  const std::uint32_t payload_len = LoadU32(data + kLenAt);
  const std::uint32_t crc = LoadU32(data + kCrcAt);
  if (payload_len < kValueAt) return 0;  // cannot hold the fixed fields
  if (size - kRecordHeaderSize < payload_len) return 0;
  const std::uint8_t* p = data + kRecordHeaderSize;
  if (Crc32c(p, payload_len) != crc) return 0;
  out->lsn = LoadU64(p + kLsnAt);
  out->txn = LoadU64(p + kTxnAt);
  out->oid = LoadU64(p + kOidAt);
  out->shard = LoadU32(p + kShardAt);
  // A clock never makes a timestamp past its limits, so a record that
  // carries one is as corrupt as one with a bad CRC.
  const std::uint64_t old_counter = LoadU64(p + kOldCounterAt);
  const std::uint32_t old_node = LoadU32(p + kOldNodeAt);
  const std::uint64_t new_counter = LoadU64(p + kNewCounterAt);
  const std::uint32_t new_node = LoadU32(p + kNewNodeAt);
  if (!Timestamp::Fits(old_counter, old_node) ||
      !Timestamp::Fits(new_counter, new_node)) {
    return 0;
  }
  out->old_ts = Timestamp(old_counter, old_node);
  out->new_ts = Timestamp(new_counter, new_node);
  const std::size_t value_bytes = payload_len - kValueAt;
  if (p[kKindAt] == kScalarKind) {
    if (value_bytes != 8) return 0;
    out->value = Value(static_cast<std::int64_t>(LoadU64(p + kValueAt)));
  } else if (p[kKindAt] == kListKind) {
    if (value_bytes < 4) return 0;
    const std::uint32_t n = LoadU32(p + kValueAt);
    if (value_bytes != 4 + std::size_t{n} * 8) return 0;
    Value::List list;
    list.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      list.push_back(
          static_cast<std::int64_t>(LoadU64(p + kListItemsAt + 8 * i)));
    }
    out->value = Value(std::move(list));
  } else {
    return 0;
  }
  return kRecordHeaderSize + payload_len;
}

}  // namespace tdr::wal
