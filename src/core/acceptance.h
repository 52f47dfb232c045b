#ifndef TDR_CORE_ACCEPTANCE_H_
#define TDR_CORE_ACCEPTANCE_H_

#include <functional>
#include <optional>
#include <string>

#include "txn/executor.h"

namespace tdr {

/// Verdict of an acceptance criterion on a reprocessed base transaction.
struct AcceptanceDecision {
  bool accepted = true;
  std::string reason;  // diagnostic returned to the mobile node on reject

  static AcceptanceDecision Accept() { return {true, ""}; }
  static AcceptanceDecision Reject(std::string why) {
    return {false, std::move(why)};
  }
};

/// "The base transaction has an acceptance criterion: a test the
/// resulting outputs must pass for the slightly different base
/// transaction results to be acceptable" (§7). The criterion sees both
/// the base execution's result and the original tentative execution's
/// result, so it can compare outputs.
using AcceptanceCriterion = std::function<AcceptanceDecision(
    const TxnResult& base, const TxnResult& tentative)>;

/// Final value the transaction wrote to `oid` (from its update records),
/// if it wrote it.
std::optional<Value> FinalValueOf(const TxnResult& result, ObjectId oid);

// Builders for the paper's §7 example criteria.

/// Accepts everything — the pure-commutative workload's criterion
/// ("It is fine if the checking account balance is different when the
/// transaction is reprocessed").
AcceptanceCriterion AcceptAlways();

/// "The bank balance must not go negative": the base transaction's
/// final value of `oid` must be >= `floor`.
AcceptanceCriterion ScalarAtLeast(ObjectId oid, std::int64_t floor);

/// "The price quote can not exceed the tentative quote": the base
/// transaction's final value of `oid` must be <= the tentative
/// transaction's final value of the same object.
AcceptanceCriterion NoWorseThanTentative(ObjectId oid);

/// "If the acceptance criteria requires the base and tentative
/// transaction have identical outputs": every read the base transaction
/// made must equal the corresponding tentative read.
AcceptanceCriterion IdenticalReads();

/// "If the price of an item has increased by a LARGE amount ... the
/// quote must be reconciled": tolerate drift between the base and
/// tentative final value of `oid` up to `percent` of the tentative
/// value (absolute drift for a zero tentative value is rejected unless
/// equal). The in-between point of the acceptance spectrum: looser than
/// an exact match, tighter than AcceptAlways.
AcceptanceCriterion WithinPercentOfTentative(ObjectId oid, double percent);

/// Conjunction: accept only if both accept (reports the first reason).
AcceptanceCriterion Both(AcceptanceCriterion a, AcceptanceCriterion b);

}  // namespace tdr

#endif  // TDR_CORE_ACCEPTANCE_H_
