#include "txn/replay_validator.h"

#include <algorithm>

namespace tdr {

void ReplayValidator::RecordCommit(const Program& program,
                                   Timestamp commit_ts) {
  log_.push_back(Entry{commit_ts, program});
}

std::map<ObjectId, Value> ReplayValidator::ReplaySerial() const {
  std::vector<const Entry*> order;
  order.reserve(log_.size());
  for (const Entry& e : log_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->commit_ts < b->commit_ts;
                   });
  std::map<ObjectId, Value> state;
  for (const Entry* e : order) {
    EvaluateProgram(e->program, &state);
  }
  return state;
}

bool ReplayValidator::Matches(const ObjectStore& store) const {
  return Divergence(store).empty();
}

std::vector<ObjectId> ReplayValidator::Divergence(
    const ObjectStore& store) const {
  std::map<ObjectId, Value> replayed = ReplaySerial();
  const Value kZero;
  std::vector<ObjectId> diff;
  for (ObjectId oid = 0; oid < store.size(); ++oid) {
    const Value live = store.GetUnchecked(oid).value();
    auto it = replayed.find(oid);
    const Value& expected = it != replayed.end() ? it->second : kZero;
    if (live != expected) diff.push_back(oid);
  }
  return diff;
}

}  // namespace tdr
