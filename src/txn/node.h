#ifndef TDR_TXN_NODE_H_
#define TDR_TXN_NODE_H_

#include <memory>
#include <vector>

#include "storage/object_store.h"
#include "storage/timestamp.h"
#include "txn/lock_manager.h"
#include "txn/wait_for_graph.h"

namespace tdr {

/// One simulated database node: a full replica of the database plus the
/// local transaction machinery ("each node storing a replica of all
/// objects", §2 model). Replication schemes and the two-tier core layer
/// compose behaviour on top; Node itself is policy-free.
class Node {
 public:
  Node(NodeId id, std::uint64_t db_size, WaitForGraph* graph,
       bool detect_deadlock_cycles = true)
      : id_(id),
        store_(db_size),
        locks_(id, db_size, graph, detect_deadlock_cycles),
        clock_(id) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }

  LamportClock& clock() { return clock_; }

  /// Connectivity flag maintained by the net module's ConnectivitySchedule.
  bool connected() const { return connected_; }
  void set_connected(bool connected) { connected_ = connected; }

  /// Crash flag maintained by Network::Crash/Restart. A crashed node is
  /// always disconnected, but unlike a deliberately disconnected mobile
  /// node it loses its volatile receive buffers and must not originate
  /// work; the store survives (it models the durable state a recovery
  /// log restores).
  bool crashed() const { return crashed_; }
  void set_crashed(bool crashed) { crashed_ = crashed; }

 private:
  NodeId id_;
  ObjectStore store_;
  LockManager locks_;
  LamportClock clock_;
  bool connected_ = true;
  bool crashed_ = false;
};

}  // namespace tdr

#endif  // TDR_TXN_NODE_H_
