#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace tdr {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  void Init(std::uint32_t num_nodes, Network::Options opts = {}) {
    for (NodeId id = 0; id < num_nodes; ++id) {
      nodes_.push_back(std::make_unique<Node>(id, 4, &graph_));
    }
    std::vector<Node*> ptrs;
    for (auto& n : nodes_) ptrs.push_back(n.get());
    net_ = std::make_unique<Network>(&sim_, ptrs, opts, &counters_);
  }

  sim::Simulator sim_;
  WaitForGraph graph_;
  obs::MetricsRegistry counters_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Network> net_;
};

TEST_F(NetworkTest, ZeroDelayDeliversSameInstant) {
  Init(2);
  bool delivered = false;
  net_->Send(0, 1, [&] {
    delivered = true;
    EXPECT_EQ(sim_.Now(), SimTime::Zero());
  });
  EXPECT_FALSE(delivered);  // still event-queued
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net_->messages_sent(), 1u);
  EXPECT_EQ(net_->messages_delivered(), 1u);
}

TEST_F(NetworkTest, DelayedDelivery) {
  Network::Options opts;
  opts.delay = SimTime::Millis(50);
  Init(2, opts);
  SimTime arrival;
  net_->Send(0, 1, [&] { arrival = sim_.Now(); });
  sim_.Run();
  EXPECT_EQ(arrival, SimTime::Millis(50));
}

TEST_F(NetworkTest, InOrderDeliveryPerSender) {
  Init(2);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net_->Send(0, 1, [&order, i] { order.push_back(i); });
  }
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(NetworkTest, DisconnectedSenderQueuesInOutbox) {
  Init(2);
  bool delivered = false;
  net_->SetConnected(0, false);
  net_->Send(0, 1, [&] { delivered = true; });
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_->messages_queued(), 1u);
  EXPECT_EQ(net_->PendingAt(0), 1u);
  net_->SetConnected(0, true);
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net_->PendingAt(0), 0u);
}

TEST_F(NetworkTest, DisconnectedReceiverQueuesInInbox) {
  Init(2);
  bool delivered = false;
  net_->SetConnected(1, false);
  net_->Send(0, 1, [&] { delivered = true; });
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_->PendingAt(1), 1u);
  net_->SetConnected(1, true);
  EXPECT_TRUE(delivered);  // inbox flush is synchronous
}

TEST_F(NetworkTest, QueuedTrafficSurvivesMultipleCycles) {
  Init(2);
  int delivered = 0;
  net_->SetConnected(1, false);
  net_->Send(0, 1, [&] { ++delivered; });
  sim_.Run();
  net_->SetConnected(1, true);
  net_->SetConnected(1, false);
  net_->Send(0, 1, [&] { ++delivered; });
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  net_->SetConnected(1, true);
  sim_.Run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(NetworkTest, ReconnectCallbacksFireAfterInboxFlush) {
  Init(2);
  std::vector<std::string> events;
  net_->OnReconnect(1, [&] { events.push_back("reconnect"); });
  net_->SetConnected(1, false);
  net_->Send(0, 1, [&] { events.push_back("message"); });
  sim_.Run();
  net_->SetConnected(1, true);
  // The queued slave updates land before the reconnect protocol runs —
  // required by the two-tier ordering (§7 steps).
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "message");
  EXPECT_EQ(events[1], "reconnect");
}

TEST_F(NetworkTest, SelfSendDeliversEvenWhenDisconnected) {
  Init(2);
  bool delivered = false;
  net_->SetConnected(0, false);
  net_->Send(0, 0, [&] { delivered = true; });
  sim_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, InFlightMessageLandsInInboxIfReceiverDrops) {
  Network::Options opts;
  opts.delay = SimTime::Millis(100);
  Init(2, opts);
  bool delivered = false;
  net_->Send(0, 1, [&] { delivered = true; });
  // Receiver disconnects while the message is in flight.
  sim_.ScheduleAt(SimTime::Millis(50), [&] { net_->SetConnected(1, false); });
  sim_.RunUntil(SimTime::Millis(200));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_->PendingAt(1), 1u);
  net_->SetConnected(1, true);
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, MultipleReconnectCallbacksRunInRegistrationOrder) {
  Init(2);
  std::vector<int> order;
  net_->OnReconnect(0, [&] { order.push_back(1); });
  net_->OnReconnect(0, [&] { order.push_back(2); });
  net_->SetConnected(0, false);
  net_->SetConnected(0, true);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(NetworkTest, SetConnectedTrueWhenAlreadyConnectedIsNoOp) {
  Init(2);
  int reconnects = 0;
  net_->OnReconnect(0, [&] { ++reconnects; });
  net_->SetConnected(0, true);  // already connected
  EXPECT_EQ(reconnects, 0);
  // Either way, a repeated call changes nothing: two disconnects and two
  // reconnects are one cycle.
  net_->SetConnected(0, false);
  net_->SetConnected(0, false);
  net_->SetConnected(0, true);
  net_->SetConnected(0, true);
  EXPECT_EQ(reconnects, 1);
}

TEST_F(NetworkTest, CountersTrackQueuedAndDelivered) {
  Init(3);
  net_->SetConnected(2, false);
  net_->Send(0, 1, [] {});
  net_->Send(0, 2, [] {});
  sim_.Run();
  EXPECT_EQ(net_->messages_sent(), 2u);
  EXPECT_EQ(net_->messages_delivered(), 1u);
  EXPECT_EQ(net_->messages_queued(), 1u);
  EXPECT_EQ(counters_.Get("net.sent"), 2u);
  EXPECT_EQ(counters_.Get("net.delivered"), 1u);
}

TEST_F(NetworkTest, OutboxPreservesOrderAcrossReconnect) {
  Init(2);
  std::vector<int> order;
  net_->SetConnected(0, false);
  for (int i = 0; i < 4; ++i) {
    net_->Send(0, 1, [&order, i] { order.push_back(i); });
  }
  sim_.Run();
  net_->SetConnected(0, true);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ConnectivityScheduleTest, DeterministicCycle) {
  sim::Simulator sim;
  WaitForGraph graph;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(0, 4, &graph));
  std::vector<Node*> ptrs{nodes[0].get()};
  Network net(&sim, ptrs, {}, &metrics);

  ConnectivitySchedule::Options opts;
  opts.time_between_disconnects = SimTime::Seconds(10);
  opts.disconnected_time = SimTime::Seconds(5);
  ConnectivitySchedule sched(&sim, &net, 0, opts, Rng(1));
  sched.Start();
  EXPECT_TRUE(nodes[0]->connected());
  sim.RunUntil(SimTime::Seconds(12));
  EXPECT_FALSE(nodes[0]->connected());  // disconnected at t=10..15
  sim.RunUntil(SimTime::Seconds(16));
  EXPECT_TRUE(nodes[0]->connected());
  sim.RunUntil(SimTime::Seconds(26));
  EXPECT_FALSE(nodes[0]->connected());  // next cycle at t=25..30
  EXPECT_EQ(sched.cycles(), 2u);
}

TEST(ConnectivityScheduleTest, StartDisconnected) {
  sim::Simulator sim;
  WaitForGraph graph;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(0, 4, &graph));
  Network net(&sim, {nodes[0].get()}, {}, &metrics);

  ConnectivitySchedule::Options opts;
  opts.time_between_disconnects = SimTime::Seconds(1);
  opts.disconnected_time = SimTime::Seconds(9);
  opts.start_disconnected = true;
  ConnectivitySchedule sched(&sim, &net, 0, opts, Rng(2));
  sched.Start();
  EXPECT_FALSE(nodes[0]->connected());
  sim.RunUntil(SimTime::Seconds(9.5));
  EXPECT_TRUE(nodes[0]->connected());
  sim.RunUntil(SimTime::Seconds(11));
  EXPECT_FALSE(nodes[0]->connected());
}

TEST(ConnectivityScheduleTest, StopFreezesState) {
  sim::Simulator sim;
  WaitForGraph graph;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(0, 4, &graph));
  Network net(&sim, {nodes[0].get()}, {}, &metrics);

  ConnectivitySchedule::Options opts;
  opts.time_between_disconnects = SimTime::Seconds(2);
  opts.disconnected_time = SimTime::Seconds(2);
  ConnectivitySchedule sched(&sim, &net, 0, opts, Rng(3));
  sched.Start();
  sim.RunUntil(SimTime::Seconds(1));
  sched.Stop();
  sim.RunUntil(SimTime::Seconds(60));
  EXPECT_TRUE(nodes[0]->connected());
}

TEST(ConnectivityScheduleTest, DestructionCancelsPendingPhaseChange) {
  sim::Simulator sim;
  WaitForGraph graph;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(0, 4, &graph));
  Network net(&sim, {nodes[0].get()}, {}, &metrics);
  {
    ConnectivitySchedule::Options opts;
    opts.time_between_disconnects = SimTime::Seconds(10);
    opts.disconnected_time = SimTime::Seconds(10);
    ConnectivitySchedule sched(&sim, &net, 0, opts, Rng(8));
    sched.Start();
    sim.RunUntil(SimTime::Seconds(1));
    EXPECT_EQ(sim.PendingEvents(), 1u);
  }  // schedule destroyed with the disconnect event pending
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunUntil(SimTime::Seconds(60));  // must not touch freed memory
  EXPECT_TRUE(nodes[0]->connected());
}

TEST(ConnectivityScheduleTest, ZeroDisconnectedTimeNeverDisconnects) {
  sim::Simulator sim;
  WaitForGraph graph;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(0, 4, &graph));
  Network net(&sim, {nodes[0].get()}, {}, &metrics);

  ConnectivitySchedule::Options opts;
  opts.time_between_disconnects = SimTime::Seconds(1);
  opts.disconnected_time = SimTime::Zero();
  ConnectivitySchedule sched(&sim, &net, 0, opts, Rng(4));
  sched.Start();
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(nodes[0]->connected());
}

}  // namespace
}  // namespace tdr
