#ifndef TDR_REPLICATION_SCHEME_H_
#define TDR_REPLICATION_SCHEME_H_

#include <string>

#include "replication/cluster.h"
#include "txn/executor.h"
#include "txn/program.h"

namespace tdr {

/// Interface every replication strategy implements — the Table 1
/// taxonomy made executable. Submit() runs one user transaction under
/// the scheme's rules; everything else (replica propagation, conflict
/// tests, reconciliation bookkeeping) happens behind it in simulated
/// time.
class ReplicationScheme {
 public:
  using DoneCallback = Executor::DoneCallback;

  virtual ~ReplicationScheme() = default;

  virtual std::string_view name() const = 0;

  /// Table 1 row: eager (updates in the user transaction) vs lazy.
  virtual bool eager() const = 0;

  /// Table 1 column: group (update anywhere) vs master ownership.
  virtual bool group_ownership() const = 0;

  /// Transactions a single user update ultimately causes, as a function
  /// of N nodes (Table 1: "N transactions" vs "one transaction").
  virtual std::uint64_t TransactionsPerUserUpdate(
      std::uint32_t nodes) const = 0;

  /// Runs one user transaction originating at `origin`. `done` fires
  /// exactly once in simulated time with the user-visible outcome (for
  /// lazy schemes, that is the root/master transaction's outcome; replica
  /// propagation continues afterwards).
  virtual void Submit(NodeId origin, const Program& program,
                      DoneCallback done) = 0;
};

/// Ends a transaction that never ran because a node it needs is out of
/// reach: counts it in `scheme.unavailable` and hands `done`, if set, a
/// kUnavailable result at the current instant.
inline void FailUnavailable(Cluster* cluster, NodeId origin,
                            const ReplicationScheme::DoneCallback& done) {
  cluster->metrics().Increment("scheme.unavailable");
  if (!done) return;
  TxnResult r;
  r.origin = origin;
  r.outcome = TxnOutcome::kUnavailable;
  r.start_time = cluster->sim().Now();
  r.end_time = r.start_time;
  done(r);
}

}  // namespace tdr

#endif  // TDR_REPLICATION_SCHEME_H_
