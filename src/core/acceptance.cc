#include "core/acceptance.h"

#include "util/logging.h"

namespace tdr {

std::optional<Value> FinalValueOf(const TxnResult& result, ObjectId oid) {
  // Update records are one per (node, object); any record for `oid`
  // carries the same final value (all replicas written by one txn get
  // the same value), so the first match suffices.
  for (const UpdateRecord& rec : result.updates) {
    if (rec.oid == oid) return rec.new_value;
  }
  return std::nullopt;
}

AcceptanceCriterion AcceptAlways() {
  return [](const TxnResult&, const TxnResult&) {
    return AcceptanceDecision::Accept();
  };
}

AcceptanceCriterion ScalarAtLeast(ObjectId oid, std::int64_t floor) {
  return [oid, floor](const TxnResult& base, const TxnResult&) {
    std::optional<Value> v = FinalValueOf(base, oid);
    if (!v.has_value()) {
      // The base transaction did not touch the guarded object; nothing
      // to check.
      return AcceptanceDecision::Accept();
    }
    if (v->AsScalar() < floor) {
      return AcceptanceDecision::Reject(
          StrPrintf("object %llu final value %lld below floor %lld",
                    (unsigned long long)oid, (long long)v->AsScalar(),
                    (long long)floor));
    }
    return AcceptanceDecision::Accept();
  };
}

AcceptanceCriterion NoWorseThanTentative(ObjectId oid) {
  return [oid](const TxnResult& base, const TxnResult& tentative) {
    std::optional<Value> b = FinalValueOf(base, oid);
    std::optional<Value> t = FinalValueOf(tentative, oid);
    if (!b.has_value() || !t.has_value()) {
      return AcceptanceDecision::Accept();
    }
    if (b->AsScalar() > t->AsScalar()) {
      return AcceptanceDecision::Reject(StrPrintf(
          "object %llu base value %lld exceeds tentative quote %lld",
          (unsigned long long)oid, (long long)b->AsScalar(),
          (long long)t->AsScalar()));
    }
    return AcceptanceDecision::Accept();
  };
}

AcceptanceCriterion IdenticalReads() {
  return [](const TxnResult& base, const TxnResult& tentative) {
    if (base.reads.size() != tentative.reads.size()) {
      return AcceptanceDecision::Reject("read counts differ");
    }
    for (std::size_t i = 0; i < base.reads.size(); ++i) {
      if (base.reads[i] != tentative.reads[i]) {
        return AcceptanceDecision::Reject(StrPrintf(
            "read %zu differs: base=%s tentative=%s", i,
            base.reads[i].ToString().c_str(),
            tentative.reads[i].ToString().c_str()));
      }
    }
    return AcceptanceDecision::Accept();
  };
}

AcceptanceCriterion WithinPercentOfTentative(ObjectId oid,
                                             double percent) {
  return [oid, percent](const TxnResult& base, const TxnResult& tentative) {
    std::optional<Value> b = FinalValueOf(base, oid);
    std::optional<Value> t = FinalValueOf(tentative, oid);
    if (!b.has_value() || !t.has_value()) {
      return AcceptanceDecision::Accept();
    }
    double base_v = static_cast<double>(b->AsScalar());
    double tent_v = static_cast<double>(t->AsScalar());
    double drift = base_v - tent_v;
    if (drift < 0) drift = -drift;
    double allowed = tent_v < 0 ? -tent_v : tent_v;
    allowed = allowed * percent / 100.0;
    if (drift > allowed) {
      return AcceptanceDecision::Reject(StrPrintf(
          "object %llu drifted %.0f from tentative %.0f (> %.1f%%)",
          (unsigned long long)oid, drift, tent_v, percent));
    }
    return AcceptanceDecision::Accept();
  };
}

AcceptanceCriterion Both(AcceptanceCriterion a, AcceptanceCriterion b) {
  return [a = std::move(a), b = std::move(b)](const TxnResult& base,
                                              const TxnResult& tentative) {
    AcceptanceDecision da = a(base, tentative);
    if (!da.accepted) return da;
    return b(base, tentative);
  };
}

}  // namespace tdr
