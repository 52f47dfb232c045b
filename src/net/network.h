#ifndef TDR_NET_NETWORK_H_
#define TDR_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/message_pool.h"
#include "obs/metrics.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "txn/node.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace tdr {

/// Simulated point-to-point network between cluster nodes.
///
/// The paper's base model *ignores* message propagation delay and
/// per-message CPU ("Message_Delay ... Message_cpu ... ignored"), so the
/// default delay is zero — but both knobs exist because the paper
/// repeatedly notes rates only get worse with real delays, and the
/// delay ablation bench demonstrates exactly that.
///
/// Disconnection semantics (the mobile-node model of §2/§4):
///  * a message sent while the SENDER is disconnected waits in the
///    sender's outbox until it reconnects;
///  * a message arriving while the RECEIVER is disconnected waits in the
///    receiver's inbox until it reconnects;
///  * order is preserved per queue.
///
/// Failure semantics (the fault-injection model, src/fault):
///  * every link is either up (default) or cut; a message transmitted
///    over a cut link parks in a per-link held queue and resumes
///    transmission when the link heals — partitions delay, they do not
///    silently drop (the sender's replication stream is durable);
///  * an attached MessageInterceptor may drop, duplicate, or delay each
///    transmission — the probabilistic fault layer;
///  * a CRASHED node (Crash/Restart) loses its volatile receive
///    buffers: its inbox is discarded at crash time and messages
///    arriving while it is down are dropped. Its outbox survives — a
///    queued outbound message corresponds to a committed update in the
///    node's recovery log, and Restart re-ships it (log recovery).
///
/// Allocation model: every message lives in a net::MessagePool record
/// from Send to delivery — queued, link-parked, and in-flight states
/// are intrusive links over the same slab, and a scheduled delivery
/// captures only (this, handle). A duplicated transmission (fault
/// injection) stays ONE record whose handler runs `copies` times at
/// arrival: the injector schedules copies back-to-back at the same
/// latency with consecutive event seqs, so no other event can
/// interleave and the merged delivery is observationally identical.
/// Handlers therefore must tolerate repeat invocation (treat captured
/// payloads as read-only); they run from simulated time, never
/// synchronously inside Send.
class Network {
 public:
  /// A delivered message is just a callback run at the destination at
  /// delivery time. Replication schemes close over whatever state the
  /// message carries — move-only, 64-byte small-buffer (sim::Callback);
  /// bulk payloads ride in a SharedPool lease, not the capture.
  using Handler = sim::Callback;

  struct Options {
    /// One-way propagation delay (paper default: zero).
    SimTime delay = SimTime::Zero();
  };

  /// What the fault layer may do to one message transmission.
  struct InterceptVerdict {
    bool drop = false;            // message lost forever
    std::uint32_t copies = 1;     // >1 = duplicate delivery
    SimTime extra_delay = SimTime::Zero();  // reorder/delay spike
  };

  /// Interception point consulted once per message transmission (not
  /// for self-sends). Implemented by fault::FaultInjector; the default
  /// (no interceptor) is the perfect network the paper assumes.
  class MessageInterceptor {
   public:
    virtual ~MessageInterceptor() = default;
    virtual InterceptVerdict OnTransmit(NodeId from, NodeId to) = 0;
  };

  /// `metrics` receives the network's counts and must outlive it, as
  /// must `sim`.
  Network(sim::Simulator* sim, std::vector<Node*> nodes, Options options,
          obs::MetricsRegistry* metrics);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  ~Network();

  /// Sends a message; `fn` runs at the destination after the configured
  /// delay once both endpoints have been connected. Self-sends are
  /// delivered (with delay) without touching connectivity or faults.
  void Send(NodeId from, NodeId to, Handler fn);

  /// Marks the node (dis)connected and flushes queues on reconnect.
  /// This is the single authority on Node::connected().
  void SetConnected(NodeId node, bool connected);

  /// Registered callbacks run after a node reconnects and its queued
  /// traffic has been flushed — replication schemes hook their
  /// reconnect exchange protocol here.
  void OnReconnect(NodeId node, std::function<void()> fn);

  // --- Fault surface (driven by fault::FaultInjector) ---------------

  /// Attaches/detaches the probabilistic fault layer (not owned).
  void set_interceptor(MessageInterceptor* interceptor) {
    interceptor_ = interceptor;
  }
  MessageInterceptor* interceptor() const { return interceptor_; }

  /// Cuts or restores the (symmetric) link between `a` and `b`.
  /// Restoring re-transmits every message held on the link, then runs
  /// the OnLinkRestored callbacks — catch-up protocols hook there.
  void SetLinkUp(NodeId a, NodeId b, bool up);
  bool LinkUp(NodeId a, NodeId b) const;

  /// True if a message sent now from `from` would be delivered without
  /// queueing: both endpoints connected and the link up. Self-links are
  /// always reachable. This is the reachability replication schemes
  /// consult ("must be connected to the object owner").
  bool Reachable(NodeId from, NodeId to) const;

  /// Callbacks run after a cut link heals (both orders of (a, b) are
  /// reported as passed to SetLinkUp).
  void OnLinkRestored(std::function<void(NodeId a, NodeId b)> fn);

  /// Crashes the node: marks it crashed + disconnected, discards its
  /// inbox (volatile receive buffers), keeps its outbox (recovery log).
  void Crash(NodeId node);

  /// Restarts a crashed node: clears the crash flag, reconnects (which
  /// flushes the surviving outbox — log recovery — and fires the
  /// reconnect hooks, e.g. quorum catch-up).
  void Restart(NodeId node);

  /// Discards the node's queued outbound messages. The default crash
  /// model treats the outbox as a durable log and keeps it; under WAL
  /// durability modes the RecoveryManager calls this at crash — unsent
  /// messages are volatile state, and recovery replays from the WAL
  /// instead.
  void DiscardOutbox(NodeId node);

  std::uint64_t messages_sent() const { return m_sent_.value(); }
  std::uint64_t messages_delivered() const { return m_delivered_.value(); }
  std::uint64_t messages_queued() const { return queued_; }
  /// Lost to the fault layer, to a crashed receiver, or with a crashed
  /// node's inbox or discarded outbox.
  std::uint64_t messages_dropped() const {
    return m_dropped_.value() + m_crash_dropped_.value() +
           m_inbox_lost_.value();
  }
  std::uint64_t messages_duplicated() const { return m_duplicated_.value(); }
  std::uint64_t messages_held() const { return m_held_.value(); }
  std::size_t PendingAt(NodeId node) const {
    return static_cast<std::size_t>(outbox_[node].count +
                                    inbox_[node].count);
  }
  /// Messages currently parked on cut links.
  std::size_t HeldCount() const;

 private:
  using Handle = net::MessagePool::Handle;
  using MsgQueue = net::MessagePool::Queue;

  void Transmit(Handle h);
  void Arrive(Handle h);
  /// Releases every record in `q` (counters untouched).
  void Discard(MsgQueue& q);
  std::size_t LinkIndex(NodeId a, NodeId b) const {
    return static_cast<std::size_t>(a) * nodes_.size() + b;
  }

  sim::Simulator* sim_;
  std::vector<Node*> nodes_;
  Options options_;
  // Cached metric handles, the only store of the network's counts;
  // Send/Transmit/Arrive are the hottest paths in large sweeps.
  obs::MetricsRegistry::Counter m_sent_;
  obs::MetricsRegistry::Counter m_held_;
  obs::MetricsRegistry::Counter m_dropped_;
  obs::MetricsRegistry::Counter m_duplicated_;
  obs::MetricsRegistry::Counter m_crash_dropped_;
  obs::MetricsRegistry::Counter m_delivered_;
  obs::MetricsRegistry::Counter m_inbox_lost_;
  obs::MetricsRegistry::Counter m_crashes_;
  obs::MetricsRegistry::Counter m_restarts_;
  MessageInterceptor* interceptor_ = nullptr;
  net::MessagePool pool_;
  std::vector<MsgQueue> outbox_;  // per sender
  std::vector<MsgQueue> inbox_;   // per receiver
  std::vector<std::uint8_t> link_up_;  // n*n, symmetric
  // Messages parked on cut links, indexed by directed LinkIndex(from,
  // to); FIFO order is preserved through heal, so per-link ordering
  // survives a partition. Heal drains (a, b) then (b, a) — the same
  // deterministic order the std::map representation flushed in.
  std::vector<MsgQueue> held_;
  std::vector<std::vector<std::function<void()>>> on_reconnect_;
  std::vector<std::function<void(NodeId, NodeId)>> on_link_restored_;
  std::uint64_t queued_ = 0;
};

/// Drives the connect/disconnect cycle of one (mobile) node, per the
/// model's Time_Between_Disconnects / Disconnected_time parameters
/// (Table 2). "The node accepts and applies transactions for a day.
/// Then, at night it connects and downloads them" (§4) corresponds to a
/// long disconnected_time and a short connected window.
class ConnectivitySchedule {
 public:
  struct Options {
    /// Mean time the node stays connected between disconnects.
    SimTime time_between_disconnects = SimTime::Seconds(3600);
    /// Mean time the node stays disconnected.
    SimTime disconnected_time = SimTime::Seconds(0);
    /// If true, phase lengths are exponentially distributed with the
    /// above means; if false they are deterministic.
    bool exponential = false;
    /// If true the node starts disconnected (mobile default).
    bool start_disconnected = false;
  };

  ConnectivitySchedule(sim::Simulator* sim, Network* network, NodeId node,
                       Options options, Rng rng);

  /// Stops and cancels the pending phase-change event (it captures
  /// `this`, so it must not outlive the schedule).
  ~ConnectivitySchedule();

  ConnectivitySchedule(const ConnectivitySchedule&) = delete;
  ConnectivitySchedule& operator=(const ConnectivitySchedule&) = delete;

  /// Begins the cycle. Idempotent.
  void Start();

  /// Stops future phase changes (the node stays in its current state).
  void Stop();

  std::uint64_t cycles() const { return cycles_; }

 private:
  SimTime PhaseLength(SimTime mean);
  void EnterConnected();
  void EnterDisconnected();

  sim::Simulator* sim_;
  Network* network_;
  NodeId node_;
  Options options_;
  Rng rng_;
  bool running_ = false;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint64_t cycles_ = 0;
};

}  // namespace tdr

#endif  // TDR_NET_NETWORK_H_
