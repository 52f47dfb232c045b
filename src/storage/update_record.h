#ifndef TDR_STORAGE_UPDATE_RECORD_H_
#define TDR_STORAGE_UPDATE_RECORD_H_

#include <cstdint>
#include <string>

#include "storage/timestamp.h"
#include "storage/types.h"

namespace tdr {

/// One committed object update, as carried by a lazy replica-update
/// transaction (Figure 4: "TRID, Timestamp / OID, old time, new value").
struct UpdateRecord {
  TxnId txn = kInvalidTxnId;       // root transaction id
  ObjectId oid = 0;
  Timestamp old_ts;                // timestamp the root transaction saw
  Timestamp new_ts;                // timestamp assigned at commit
  Value new_value;
  NodeId origin = kInvalidNodeId;  // node where the root txn ran

  std::string ToString() const;
};
static_assert(sizeof(UpdateRecord) == 56,
              "two ids, two timestamp words, a value and an origin");

}  // namespace tdr

#endif  // TDR_STORAGE_UPDATE_RECORD_H_
