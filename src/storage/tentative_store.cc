#include "storage/tentative_store.h"

namespace tdr {

Result<StoredObject> TentativeStore::Read(ObjectId oid) const {
  auto it = overlay_.find(oid);
  if (it != overlay_.end()) {
    return it->second;
  }
  auto base = master_->Get(oid);
  if (!base.ok()) return base.status();
  return base.value().get();
}

Status TentativeStore::WriteTentative(ObjectId oid, const Value& value,
                                      Timestamp ts) {
  if (!master_->Contains(oid)) {
    return Status::NotFound("WriteTentative: object out of range");
  }
  overlay_[oid].Set(value, ts);
  return Status::OK();
}

std::vector<ObjectId> TentativeStore::TentativeIds() const {
  std::vector<ObjectId> ids;
  ids.reserve(overlay_.size());
  for (const auto& [oid, obj] : overlay_) ids.push_back(oid);
  return ids;
}

}  // namespace tdr
