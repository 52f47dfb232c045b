#include "storage/update_record.h"

#include "util/logging.h"

namespace tdr {

std::string UpdateRecord::ToString() const {
  return StrPrintf("txn=%llu oid=%llu old=%s new=%s val=%s origin=%u",
                   (unsigned long long)txn, (unsigned long long)oid,
                   old_ts.ToString().c_str(), new_ts.ToString().c_str(),
                   new_value.ToString().c_str(), origin);
}

}  // namespace tdr
