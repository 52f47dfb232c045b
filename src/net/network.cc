#include "net/network.h"

#include <cassert>
#include <utility>

namespace tdr {

Network::Network(sim::Simulator* sim, std::vector<Node*> nodes,
                 Options options, obs::MetricsRegistry* metrics)
    : sim_(sim),
      nodes_(std::move(nodes)),
      options_(options),
      outbox_(nodes_.size()),
      inbox_(nodes_.size()),
      link_up_(nodes_.size() * nodes_.size(), 1),
      held_(nodes_.size() * nodes_.size()),
      on_reconnect_(nodes_.size()) {
  m_sent_ = metrics->GetCounter("net.sent");
  m_held_ = metrics->GetCounter("net.held");
  m_dropped_ = metrics->GetCounter("net.dropped");
  m_duplicated_ = metrics->GetCounter("net.duplicated");
  m_crash_dropped_ = metrics->GetCounter("net.crash_dropped");
  m_delivered_ = metrics->GetCounter("net.delivered");
  m_inbox_lost_ = metrics->GetCounter("net.inbox_lost");
  m_crashes_ = metrics->GetCounter("net.crashes");
  m_restarts_ = metrics->GetCounter("net.restarts");
}

Network::~Network() = default;

void Network::Send(NodeId from, NodeId to, Handler fn) {
  assert(from < nodes_.size() && to < nodes_.size());
  m_sent_.Increment();
  Handle h = pool_.Acquire(from, to, std::move(fn));
  if (from != to && !nodes_[from]->connected()) {
    // Sender offline: hold in its outbox until reconnect.
    ++queued_;
    pool_.Push(outbox_[from], h);
    return;
  }
  Transmit(h);
}

void Network::Transmit(Handle h) {
  NodeId from, to;
  {
    net::MessagePool::Message& m = pool_.Get(h);
    from = m.from;
    to = m.to;
  }
  SimTime extra = SimTime::Zero();
  if (from != to) {
    if (!LinkUp(from, to)) {
      // Link cut: park on the link; SetLinkUp(..., true) resumes us.
      m_held_.Increment();
      pool_.Push(held_[LinkIndex(from, to)], h);
      return;
    }
    if (interceptor_ != nullptr) {
      InterceptVerdict v = interceptor_->OnTransmit(from, to);
      if (v.drop || v.copies == 0) {
        m_dropped_.Increment();
        pool_.Release(h);
        return;
      }
      extra = v.extra_delay;
      if (v.copies > 1) {
        // One record, delivered `copies` times at arrival. The copies
        // would have been scheduled back-to-back with consecutive seqs
        // at the same latency, so nothing could interleave between
        // them — merged delivery is observationally identical.
        pool_.Get(h).copies = v.copies;
        m_duplicated_.Increment(v.copies - 1);
      }
    }
  }
  SimTime latency = options_.delay + extra;
  // Delivery runs at the DESTINATION: tag the event so the thread
  // backend executes it on the receiving node's worker.
  sim_->ScheduleAfterNode(to, latency, [this, h]() { Arrive(h); });
}

void Network::Arrive(Handle h) {
  NodeId from, to;
  std::uint32_t copies;
  {
    net::MessagePool::Message& m = pool_.Get(h);
    from = m.from;
    to = m.to;
    copies = m.copies;
  }
  if (from != to && nodes_[to]->crashed()) {
    // A crashed receiver has no process to buffer the message: lost.
    m_crash_dropped_.Increment(copies);
    pool_.Release(h);
    return;
  }
  if (from != to && !nodes_[to]->connected()) {
    // Receiver offline: hold in its inbox until reconnect.
    queued_ += copies;
    pool_.Push(inbox_[to], h);
    return;
  }
  // Move the handler out of the slab before invoking: the handler may
  // Send (growing the slab, which would invalidate the record
  // reference), and releasing first lets the slot recycle immediately.
  sim::Callback fn = std::move(pool_.Get(h).fn);
  pool_.Release(h);
  m_delivered_.Increment(copies);
  for (std::uint32_t c = 0; c < copies; ++c) fn();
}

void Network::Discard(MsgQueue& q) {
  for (Handle h = pool_.Detach(q); h != net::MessagePool::kNil;) {
    Handle next = pool_.NextOf(h);
    pool_.Release(h);
    h = next;
  }
}

void Network::SetConnected(NodeId node, bool connected) {
  assert(node < nodes_.size());
  Node* n = nodes_[node];
  if (n->connected() == connected) return;
  n->set_connected(connected);
  if (!connected) return;
  // Reconnect: flush the outbox (messages start their journey now) and
  // the inbox (messages that arrived while offline deliver now). Both
  // chains are detached first, so handlers re-queueing traffic cannot
  // perturb the drain.
  for (Handle h = pool_.Detach(outbox_[node]);
       h != net::MessagePool::kNil;) {
    Handle next = pool_.NextOf(h);
    Transmit(h);
    h = next;
  }
  for (Handle h = pool_.Detach(inbox_[node]); h != net::MessagePool::kNil;) {
    Handle next = pool_.NextOf(h);
    std::uint32_t copies = pool_.Get(h).copies;
    sim::Callback fn = std::move(pool_.Get(h).fn);
    pool_.Release(h);
    m_delivered_.Increment(copies);
    for (std::uint32_t c = 0; c < copies; ++c) fn();
    h = next;
  }
  for (const auto& fn : on_reconnect_[node]) fn();
}

void Network::OnReconnect(NodeId node, std::function<void()> fn) {
  on_reconnect_[node].push_back(std::move(fn));
}

bool Network::LinkUp(NodeId a, NodeId b) const {
  assert(a < nodes_.size() && b < nodes_.size());
  if (a == b) return true;
  return link_up_[LinkIndex(a, b)] != 0;
}

bool Network::Reachable(NodeId from, NodeId to) const {
  assert(from < nodes_.size() && to < nodes_.size());
  if (from == to) return true;
  return nodes_[from]->connected() && nodes_[to]->connected() &&
         LinkUp(from, to);
}

void Network::SetLinkUp(NodeId a, NodeId b, bool up) {
  assert(a < nodes_.size() && b < nodes_.size());
  if (a == b) return;  // self-links are permanently up
  bool was_up = link_up_[LinkIndex(a, b)] != 0;
  if (was_up == up) return;
  link_up_[LinkIndex(a, b)] = up ? 1 : 0;
  link_up_[LinkIndex(b, a)] = up ? 1 : 0;
  if (!up) return;
  // Heal: resume transmission of everything parked on the link, in the
  // order it was sent (per direction, (a, b) before (b, a) — the order
  // the former std::map representation flushed in), then let catch-up
  // protocols run.
  for (std::size_t idx : {LinkIndex(a, b), LinkIndex(b, a)}) {
    for (Handle h = pool_.Detach(held_[idx]); h != net::MessagePool::kNil;) {
      Handle next = pool_.NextOf(h);
      Transmit(h);
      h = next;
    }
  }
  for (const auto& fn : on_link_restored_) fn(a, b);
}

void Network::OnLinkRestored(std::function<void(NodeId, NodeId)> fn) {
  on_link_restored_.push_back(std::move(fn));
}

void Network::Crash(NodeId node) {
  assert(node < nodes_.size());
  Node* n = nodes_[node];
  if (n->crashed()) return;
  n->set_crashed(true);
  SetConnected(node, false);
  // Volatile receive buffers are gone. The outbox stays: each entry is a
  // committed update in the node's durable log, re-shipped at Restart.
  std::size_t lost = static_cast<std::size_t>(inbox_[node].count);
  if (lost > 0) {
    m_inbox_lost_.Increment(lost);
    Discard(inbox_[node]);
  }
  m_crashes_.Increment();
}

void Network::Restart(NodeId node) {
  assert(node < nodes_.size());
  Node* n = nodes_[node];
  if (!n->crashed()) return;
  n->set_crashed(false);
  m_restarts_.Increment();
  // Reconnecting flushes the surviving outbox (log recovery) and fires
  // the reconnect hooks so schemes run their catch-up protocols.
  SetConnected(node, true);
}

void Network::DiscardOutbox(NodeId node) {
  assert(node < nodes_.size());
  std::size_t lost = static_cast<std::size_t>(outbox_[node].count);
  if (lost > 0) {
    m_dropped_.Increment(lost);
    Discard(outbox_[node]);
  }
}

std::size_t Network::HeldCount() const {
  std::size_t total = 0;
  for (const MsgQueue& q : held_) {
    total += static_cast<std::size_t>(q.count);
  }
  return total;
}

ConnectivitySchedule::ConnectivitySchedule(sim::Simulator* sim,
                                           Network* network, NodeId node,
                                           Options options, Rng rng)
    : sim_(sim),
      network_(network),
      node_(node),
      options_(options),
      rng_(rng) {}

SimTime ConnectivitySchedule::PhaseLength(SimTime mean) {
  if (!options_.exponential) return mean;
  return SimTime::Seconds(rng_.Exponential(mean.seconds()));
}

void ConnectivitySchedule::Start() {
  if (running_) return;
  running_ = true;
  if (options_.start_disconnected) {
    network_->SetConnected(node_, false);
    EnterDisconnected();
  } else {
    network_->SetConnected(node_, true);
    EnterConnected();
  }
}

ConnectivitySchedule::~ConnectivitySchedule() { Stop(); }

void ConnectivitySchedule::Stop() {
  running_ = false;
  if (pending_ != sim::kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = sim::kInvalidEventId;
  }
}

void ConnectivitySchedule::EnterConnected() {
  if (!running_) return;
  SimTime up = PhaseLength(options_.time_between_disconnects);
  pending_ = sim_->ScheduleAfter(up, [this]() {
    pending_ = sim::kInvalidEventId;
    if (!running_) return;
    if (options_.disconnected_time <= SimTime::Zero()) {
      // Degenerate schedule: never actually disconnects.
      EnterConnected();
      return;
    }
    network_->SetConnected(node_, false);
    ++cycles_;
    EnterDisconnected();
  });
}

void ConnectivitySchedule::EnterDisconnected() {
  if (!running_) return;
  SimTime down = PhaseLength(options_.disconnected_time);
  pending_ = sim_->ScheduleAfter(down, [this]() {
    pending_ = sim::kInvalidEventId;
    if (!running_) return;
    network_->SetConnected(node_, true);
    EnterConnected();
  });
}

}  // namespace tdr
