#ifndef TDR_WORKLOAD_SCENARIOS_H_
#define TDR_WORKLOAD_SCENARIOS_H_

#include <cstdint>
#include <string>

#include "txn/program.h"
#include "util/rng.h"

namespace tdr {

/// TPC-B-style debit/credit workload ("as in the checkbook example
/// earlier, or in the TPC-A, TPC-B, and TPC-C benchmarks", §3 — the
/// database whose size grows with the system).
///
/// Database layout over the dense object-id space:
///   [0, branches)                                branch balances
///   [branches, branches + tellers)               teller balances
///   [.., .. + accounts)                          account balances
///   [.., .. + history_partitions)                history (append lists)
///
/// Each transaction is the classic profile: debit/credit an account,
/// its teller, its branch, and append a history record — four actions,
/// ALL COMMUTATIVE (adds + timestamped append), which is exactly why
/// banks could run this workload replicated long before general
/// update-anywhere worked: it is the §6/§7 design discipline.
class TpcbWorkload {
 public:
  struct Options {
    std::uint32_t branches = 2;
    std::uint32_t tellers_per_branch = 10;
    std::uint32_t accounts_per_branch = 100;
    std::uint32_t history_partitions = 8;
    std::int64_t max_amount = 100;  // |delta| drawn from [1, max]
  };

  explicit TpcbWorkload(Options options);

  /// Total object-id space the workload needs; size your ObjectStore /
  /// Cluster db_size to at least this.
  std::uint64_t db_size() const { return db_size_; }

  std::uint32_t branches() const { return options_.branches; }
  std::uint32_t tellers() const {
    return options_.branches * options_.tellers_per_branch;
  }
  std::uint32_t accounts() const {
    return options_.branches * options_.accounts_per_branch;
  }

  // Object-id helpers.
  ObjectId BranchId(std::uint32_t branch) const;
  ObjectId TellerId(std::uint32_t teller) const;
  ObjectId AccountId(std::uint32_t account) const;
  ObjectId HistoryId(std::uint32_t partition) const;

  /// The branch an account or teller belongs to.
  std::uint32_t BranchOfAccount(std::uint32_t account) const {
    return account / options_.accounts_per_branch;
  }
  std::uint32_t BranchOfTeller(std::uint32_t teller) const {
    return teller / options_.tellers_per_branch;
  }

  /// One debit/credit transaction: random teller (which fixes the
  /// branch), random account of that branch, random signed amount.
  /// `history_stamp` becomes the appended history item; pass something
  /// unique per call (e.g. a sequence number) so appends are distinct.
  Program NextTransaction(Rng& rng, std::int64_t history_stamp);

  /// Invariant over any committed set of TPC-B transactions: the sum of
  /// all account balances equals the sum of all teller balances equals
  /// the sum of all branch balances (each delta is applied to one of
  /// each). Checkable against any store via these id ranges.
  std::string Describe() const;

 private:
  Options options_;
  std::uint64_t db_size_;
};

}  // namespace tdr

#endif  // TDR_WORKLOAD_SCENARIOS_H_
