#include "net/update_batch.h"

#include <utility>

#include "util/logging.h"

namespace tdr {

std::string UpdateBatch::ToString() const {
  return StrPrintf(
      "UpdateBatch{%u->%u seq=%llu updates=%zu coalesced=%llu opened=%s}",
      origin, dest, (unsigned long long)seq, updates.size(),
      (unsigned long long)coalesced, opened.ToString().c_str());
}

void UpdateBatchBuilder::Add(const UpdateRecord& rec, bool coalesce) {
  if (coalesce) {
    auto [pos, inserted] = index_.FindOrInsert(
        rec.oid + 1, static_cast<std::uint32_t>(updates_.size()));
    if (!inserted) {
      // Chain compaction: keep the pending record's pre-image, adopt
      // the newer post-image. The receiver applies one hop t0 -> tk in
      // place of the k-hop chain.
      UpdateRecord& pending = updates_[*pos];
      pending.txn = rec.txn;
      pending.new_ts = rec.new_ts;
      pending.new_value = rec.new_value;
      ++coalesced_;
      return;
    }
  }
  updates_.push_back(rec);
}

void UpdateBatchBuilder::TakeInto(NodeId origin, NodeId dest,
                                  std::uint64_t seq, SimTime opened,
                                  UpdateBatch* out) {
  out->origin = origin;
  out->dest = dest;
  out->seq = seq;
  out->opened = opened;
  out->updates.swap(updates_);
  out->coalesced = coalesced_;
  updates_.clear();
  index_.Clear();
  coalesced_ = 0;
}

}  // namespace tdr
