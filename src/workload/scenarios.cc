#include "workload/scenarios.h"

#include <cassert>

#include "util/logging.h"

namespace tdr {

TpcbWorkload::TpcbWorkload(Options options) : options_(options) {
  assert(options_.branches > 0);
  assert(options_.tellers_per_branch > 0);
  assert(options_.accounts_per_branch > 0);
  assert(options_.history_partitions > 0);
  db_size_ = static_cast<std::uint64_t>(options_.branches) +
             tellers() + accounts() + options_.history_partitions;
}

ObjectId TpcbWorkload::BranchId(std::uint32_t branch) const {
  assert(branch < options_.branches);
  return branch;
}

ObjectId TpcbWorkload::TellerId(std::uint32_t teller) const {
  assert(teller < tellers());
  return options_.branches + teller;
}

ObjectId TpcbWorkload::AccountId(std::uint32_t account) const {
  assert(account < accounts());
  return options_.branches + tellers() + account;
}

ObjectId TpcbWorkload::HistoryId(std::uint32_t partition) const {
  assert(partition < options_.history_partitions);
  return options_.branches + tellers() + accounts() + partition;
}

Program TpcbWorkload::NextTransaction(Rng& rng,
                                      std::int64_t history_stamp) {
  std::uint32_t teller =
      static_cast<std::uint32_t>(rng.UniformInt(tellers()));
  std::uint32_t branch = BranchOfTeller(teller);
  std::uint32_t account = branch * options_.accounts_per_branch +
                          static_cast<std::uint32_t>(
                              rng.UniformInt(options_.accounts_per_branch));
  std::int64_t amount = rng.UniformRange(1, options_.max_amount);
  if (rng.Bernoulli(0.5)) amount = -amount;  // debit or credit
  std::uint32_t partition = static_cast<std::uint32_t>(
      rng.UniformInt(options_.history_partitions));
  Program p;
  p.Add(Op::Add(AccountId(account), amount));
  p.Add(Op::Add(TellerId(teller), amount));
  p.Add(Op::Add(BranchId(branch), amount));
  p.Add(Op::Append(HistoryId(partition), history_stamp));
  return p;
}

std::string TpcbWorkload::Describe() const {
  return StrPrintf(
      "TPC-B-style: %u branches x %u tellers x %u accounts, %u history "
      "partitions, %llu objects",
      options_.branches, options_.tellers_per_branch,
      options_.accounts_per_branch, options_.history_partitions,
      (unsigned long long)db_size_);
}

}  // namespace tdr
