#ifndef TDR_STORAGE_TENTATIVE_STORE_H_
#define TDR_STORAGE_TENTATIVE_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "storage/object_store.h"
#include "util/result.h"

namespace tdr {

/// The mobile node's two-version store (§7):
///
///   "Replicated data items have two versions at mobile nodes:
///    Master Version: the most recent value received from the object
///    master ... Tentative Version: the local object may be updated by
///    tentative transactions."
///
/// This class overlays tentative versions on a base ObjectStore holding
/// the node's best-known master versions. Reads see the tentative value
/// if one exists, else the master version — "if the mobile node queries
/// this data it sees the tentative values". On reconnect the overlay is
/// discarded wholesale ("discards its tentative object versions since
/// they will soon be refreshed from the masters").
class TentativeStore {
 public:
  /// `master` must outlive this overlay.
  explicit TentativeStore(ObjectStore* master) : master_(master) {}

  TentativeStore(const TentativeStore&) = delete;
  TentativeStore& operator=(const TentativeStore&) = delete;

  ObjectStore& master() { return *master_; }
  const ObjectStore& master() const { return *master_; }

  /// Reads through the overlay: tentative version if present, else the
  /// best-known master version.
  Result<StoredObject> Read(ObjectId oid) const;

  /// True if the object currently has a tentative version.
  bool HasTentative(ObjectId oid) const {
    return overlay_.find(oid) != overlay_.end();
  }

  /// Writes a tentative version (never touches the master version).
  Status WriteTentative(ObjectId oid, const Value& value, Timestamp ts);

  /// Number of objects with live tentative versions.
  std::size_t TentativeCount() const { return overlay_.size(); }

  /// Ids with tentative versions, ascending (deterministic iteration).
  std::vector<ObjectId> TentativeIds() const;

  /// Drops all tentative versions (reconnect step 1 in §7).
  void DiscardTentative() { overlay_.clear(); }

 private:
  ObjectStore* master_;
  std::map<ObjectId, StoredObject> overlay_;
};

}  // namespace tdr

#endif  // TDR_STORAGE_TENTATIVE_STORE_H_
