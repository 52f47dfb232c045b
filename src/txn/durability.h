#ifndef TDR_TXN_DURABILITY_H_
#define TDR_TXN_DURABILITY_H_

#include "sim/callback.h"
#include "storage/timestamp.h"
#include "storage/types.h"

namespace tdr {

/// Commit durability policy (what the WAL does between a transaction's
/// install and its completion).
enum class DurabilityMode : std::uint8_t {
  /// No log. Crash recovery falls back to the legacy model (stores
  /// survive crashes, outboxes act as a durable update log).
  kOff = 0,
  /// One fsync per committing transaction, serialized per node: the
  /// commit waits for its own flush. The paper-era baseline that group
  /// commit exists to beat.
  kCommit = 1,
  /// Group commit: appends accumulate; a flush fires on a small window
  /// timer or a batch-size cap, and every commit whose records it
  /// covers completes together.
  kGroup = 2,
};

inline const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kCommit:
      return "commit";
    case DurabilityMode::kGroup:
      return "group";
  }
  return "?";
}

/// The executor's seam to the write-ahead log (src/wal). Lives in txn/
/// so the executor does not depend on the wal module; WalSet implements
/// it. All calls happen inside runtime events at `node` (the executor
/// commits under the origin's event), so implementations need no
/// locking of their own.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;

  /// Appends one committed write to `node`'s log. Called after the
  /// store install, before locks release. `old_ts` is the timestamp the
  /// write replaced (Timestamp::Zero() when unobserved).
  virtual void LogWrite(NodeId node, TxnId txn, ObjectId oid,
                        const Timestamp& old_ts, const Timestamp& new_ts,
                        const Value& value) = 0;

  /// Asks `node`'s committer to make everything logged so far durable
  /// and fire `done` (exactly once, in simulated time) when it is. On a
  /// crashed node `done` still fires — void, so commits never leak
  /// locks — but the records are gone.
  virtual void RequestCommitDurability(NodeId node, sim::Callback done) = 0;
};

}  // namespace tdr

#endif  // TDR_TXN_DURABILITY_H_
