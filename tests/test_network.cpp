#include <gtest/gtest.h>

#include <numeric>

#include "sim/network.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia::sim {
namespace {

/// Dumbbell: a - r1 === r2 - b, c - r1, d - r2. Trunk is the bottleneck.
struct Dumbbell {
  Topology topo;
  NodeId a, b, c, d, r1, r2;
  Dumbbell(Bandwidth access = Bandwidth::mbps(100),
           Bandwidth trunk = Bandwidth::mbps(10)) {
    r1 = topo.add_node("r1", NodeKind::Router);
    r2 = topo.add_node("r2", NodeKind::Router);
    a = topo.add_node("a", NodeKind::Host);
    b = topo.add_node("b", NodeKind::Host);
    c = topo.add_node("c", NodeKind::Host);
    d = topo.add_node("d", NodeKind::Host);
    topo.add_link(a, r1, access);
    topo.add_link(c, r1, access);
    topo.add_link(b, r2, access);
    topo.add_link(d, r2, access);
    topo.add_link(r1, r2, trunk);
    topo.compute_routes();
  }
};

TEST(TopologyTest, FindNode) {
  Dumbbell db;
  EXPECT_EQ(db.topo.find_node("a"), db.a);
  EXPECT_EQ(db.topo.find_node("nope"), kNoNode);
}

TEST(TopologyTest, DuplicateNodeNameThrows) {
  Topology topo;
  topo.add_node("x", NodeKind::Host);
  EXPECT_THROW(topo.add_node("x", NodeKind::Host), SimError);
}

TEST(TopologyTest, SelfLinkThrows) {
  Topology topo;
  NodeId x = topo.add_node("x", NodeKind::Host);
  EXPECT_THROW(topo.add_link(x, x, Bandwidth::mbps(1)), SimError);
}

TEST(TopologyTest, PathCrossesTrunk) {
  Dumbbell db;
  const auto& path = db.topo.path(db.a, db.b);
  EXPECT_EQ(path.size(), 3u);  // a->r1, r1->r2, r2->b
}

TEST(TopologyTest, PathToSelfIsEmpty) {
  Dumbbell db;
  EXPECT_TRUE(db.topo.path(db.a, db.a).empty());
}

TEST(TopologyTest, UnreachableThrows) {
  Topology topo;
  NodeId x = topo.add_node("x", NodeKind::Host);
  NodeId y = topo.add_node("y", NodeKind::Host);
  (void)y;
  topo.compute_routes();
  EXPECT_THROW(topo.path(x, y), SimError);
}

TEST(TopologyTest, MutatingFrozenTopologyThrows) {
  Dumbbell db;
  EXPECT_THROW(db.topo.add_node("z", NodeKind::Host), SimError);
}

TEST(TopologyTest, DirectedChannelsDistinct) {
  Dumbbell db;
  const auto& fwd = db.topo.path(db.a, db.b);
  const auto& rev = db.topo.path(db.b, db.a);
  ASSERT_EQ(fwd.size(), rev.size());
  for (ChannelId c : fwd) {
    for (ChannelId r : rev) EXPECT_NE(c, r);
  }
}

TEST(FlowNetworkTest, SingleTransferTakesNominalTime) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  SimTime done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // 1 MB over a 10 Mbps trunk = 8388608 bits / 1e7 bps.
  EXPECT_NEAR(done.as_seconds(), 8.0 * 1024 * 1024 / 1e7, 1e-6);
}

TEST(FlowNetworkTest, TwoFlowsShareBottleneckFairly) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  int completed = 0;
  SimTime last;
  for (int i = 0; i < 2; ++i) {
    net.start_transfer(i ? db.c : db.a, i ? db.d : db.b, DataSize::megabytes(1),
                       [&] {
                         ++completed;
                         last = sim.now();
                       });
  }
  sim.run_until(SimTime::seconds(100));
  EXPECT_EQ(completed, 2);
  // Each flow gets 5 Mbps; both finish together at twice the solo time.
  EXPECT_NEAR(last.as_seconds(), 2 * 8.0 * 1024 * 1024 / 1e7, 1e-6);
}

TEST(FlowNetworkTest, CompletionReschedulesWhenContentionEnds) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  SimTime short_done, long_done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { long_done = sim.now(); });
  net.start_transfer(db.c, db.d, DataSize::bytes(1024 * 1024 / 2),
                     [&] { short_done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // Short flow: 0.5 MB at 5 Mbps ~ 0.839 s. Long flow: 0.5 MB at 5 Mbps
  // then remaining 0.5 MB at full 10 Mbps. (Tolerance covers the integer-
  // microsecond clock.)
  EXPECT_NEAR(short_done.as_seconds(), 0.5 * 8 * 1024 * 1024 / 5e6, 1e-5);
  EXPECT_NEAR(long_done.as_seconds(),
              0.5 * 8 * 1024 * 1024 / 5e6 + 0.5 * 8 * 1024 * 1024 / 1e7, 1e-5);
}

TEST(FlowNetworkTest, CancelledTransferNeverCompletes) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  bool fired = false;
  FlowId id = net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                                 [&] { fired = true; });
  sim.schedule_at(SimTime::millis(10), [&] { net.cancel_transfer(id); });
  sim.run_until(SimTime::seconds(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_transfers(), 0u);
}

TEST(FlowNetworkTest, LoopbackDelivers) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  bool fired = false;
  net.start_transfer(db.a, db.a, DataSize::megabytes(100), [&] { fired = true; });
  sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(fired);
}

TEST(FlowNetworkTest, BackgroundStealsCapacity) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(9));
  SimTime done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // Only 1 Mbps left on the trunk for the transfer.
  EXPECT_NEAR(done.as_seconds(), 8.0 * 1024 * 1024 / 1e6, 1e-5);
}

TEST(FlowNetworkTest, OversubscribedBackgroundClampsToCapacity) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(50));  // more than the trunk
  SimTime done = SimTime::infinity();
  net.start_transfer(db.a, db.b, DataSize::bytes(1250), [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(60));
  // The trickle guard (1 bps minimum) keeps the transfer finishing
  // eventually, but certainly not fast.
  EXPECT_GT(done.as_seconds(), 1.0);
}

TEST(FlowNetworkTest, AvailableBandwidthReflectsBackgroundAndFlows) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_mbps(), 10.0, 1e-9);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(9.95));
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_kbps(), 50.0, 1e-6);
  // A saturating transfer drives it to the floor.
  net.start_transfer(db.a, db.b, DataSize::megabytes(10), [] {});
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_bps(), 100.0, 1e-9);
}

TEST(FlowNetworkTest, PathUtilization) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  EXPECT_DOUBLE_EQ(net.path_utilization(db.a, db.b), 0.0);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(5));
  EXPECT_NEAR(net.path_utilization(db.a, db.b), 0.5, 1e-9);
}

// ---- max-min fairness properties on random configurations ----

class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinPropertyTest, AllocationIsFeasibleAndNonWasteful) {
  Rng rng(GetParam());
  Simulator sim;
  // Random star-of-routers topology.
  Topology topo;
  const int routers = 3;
  const int hosts = 6;
  std::vector<NodeId> rs, hs;
  for (int i = 0; i < routers; ++i) {
    rs.push_back(topo.add_node("r" + std::to_string(i), NodeKind::Router));
  }
  for (int i = 1; i < routers; ++i) {
    topo.add_link(rs[0], rs[i], Bandwidth::mbps(rng.uniform(2.0, 20.0)));
  }
  for (int i = 0; i < hosts; ++i) {
    hs.push_back(topo.add_node("h" + std::to_string(i), NodeKind::Host));
    topo.add_link(hs[i], rs[static_cast<std::size_t>(rng.uniform_int(routers))],
                  Bandwidth::mbps(rng.uniform(2.0, 20.0)));
  }
  topo.compute_routes();
  FlowNetwork net(sim, topo);

  const int flows = 2 + static_cast<int>(rng.uniform_int(8));
  std::vector<FlowId> ids;
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (int i = 0; i < flows; ++i) {
    NodeId src = hs[static_cast<std::size_t>(rng.uniform_int(hosts))];
    NodeId dst = src;
    while (dst == src) {
      dst = hs[static_cast<std::size_t>(rng.uniform_int(hosts))];
    }
    ids.push_back(net.start_transfer(src, dst, DataSize::megabytes(1000), [] {}));
    endpoints.emplace_back(src, dst);
  }

  // Feasibility: per-channel usage within capacity (small tolerance).
  std::vector<double> usage(topo.channel_count(), 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    double rate = net.transfer_rate(ids[i]).as_bps();
    EXPECT_GT(rate, 0.0);
    for (ChannelId c : topo.path(endpoints[i].first, endpoints[i].second)) {
      usage[c] += rate;
    }
  }
  for (ChannelId c = 0; c < static_cast<ChannelId>(topo.channel_count()); ++c) {
    EXPECT_LE(usage[c], topo.channel_capacity(c).as_bps() * (1.0 + 1e-6));
  }

  // Non-wastefulness (max-min property): every flow crosses at least one
  // saturated channel (otherwise its rate could be raised).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bool bottlenecked = false;
    for (ChannelId c : topo.path(endpoints[i].first, endpoints[i].second)) {
      if (usage[c] >= topo.channel_capacity(c).as_bps() * (1.0 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << i << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinPropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace arcadia::sim
