#include <gtest/gtest.h>

#include <algorithm>

#include "ipop/icmp_service.h"
#include "test_util.h"
#include "vtcp/tcp.h"

namespace wow {
namespace {

using testing::IpopOverlay;
using testing::PublicOverlay;

// ---------------------------------------------------------------- churn

TEST(Churn, RingSurvivesRollingRestarts) {
  PublicOverlay net(12, /*seed=*/61);
  net.start_all();
  net.sim.run_until(2 * kMinute);
  ASSERT_EQ(net.routable_count(), 12);

  // Restart one node at a time, abruptly, letting keepalives clean up.
  for (std::size_t i = 1; i <= 4; ++i) {
    net.nodes[i]->stop();
    net.sim.run_for(kMinute);
    net.nodes[i]->restart();
    net.sim.run_for(2 * kMinute);
  }
  EXPECT_EQ(net.routable_count(), 12);

  // Data still routes between every pair.
  int received = 0;
  for (auto& n : net.nodes) {
    n->set_data_handler([&received](const p2p::Address&, BytesView) {
      ++received;
    });
  }
  for (auto& a : net.nodes) {
    for (auto& b : net.nodes) {
      if (a != b) a->send_data(b->address(), Bytes{1});
    }
  }
  net.sim.run_for(30 * kSecond);
  EXPECT_EQ(received, 12 * 11);
}

TEST(Churn, SimultaneousDepartures) {
  PublicOverlay net(14, /*seed=*/67);
  net.start_all();
  net.sim.run_until(2 * kMinute);
  ASSERT_EQ(net.routable_count(), 14);

  // Three nodes vanish at once (power failure, not graceful).
  net.nodes[3]->stop();
  net.nodes[7]->stop();
  net.nodes[11]->stop();
  net.sim.run_for(5 * kMinute);

  // Survivors re-stitch the ring around the holes.
  std::vector<p2p::Address> alive;
  for (std::size_t i = 0; i < net.nodes.size(); ++i) {
    if (i != 3 && i != 7 && i != 11) alive.push_back(net.nodes[i]->address());
  }
  std::sort(alive.begin(), alive.end());
  int stitched = 0;
  for (std::size_t i = 0; i < net.nodes.size(); ++i) {
    if (i == 3 || i == 7 || i == 11) continue;
    auto& node = *net.nodes[i];
    auto it = std::find(alive.begin(), alive.end(), node.address());
    auto idx = static_cast<std::size_t>(it - alive.begin());
    const p2p::Address& successor = alive[(idx + 1) % alive.size()];
    if (node.connections().contains(successor)) ++stitched;
  }
  EXPECT_GE(stitched, 10) << "ring must close around departed nodes";
}

// ------------------------------------------------- NAT renumbering (§V-E)

TEST(NatRenumbering, HomeNodeSurvivesTranslationChange) {
  // The paper observed the broadband home node's NAT translations
  // change; IPOP "dealt with these translation changes autonomously by
  // detecting broken links and re-establishing them".  Model: flush the
  // NAT's mapping table; old public endpoints die; the node's outbound
  // traffic allocates fresh mappings, keepalives kill stale links, and
  // re-linking restores connectivity.
  sim::Simulator sim(71);
  net::Network network(sim);
  auto site = network.add_site("s");

  std::vector<std::unique_ptr<p2p::Node>> routers;
  std::vector<transport::Uri> bootstrap;
  for (int i = 0; i < 6; ++i) {
    auto& host = network.add_host(
        net::Ipv4Addr(128, 1, 0, static_cast<std::uint8_t>(i + 1)),
        net::Network::kInternet, site, net::Host::Config{});
    p2p::NodeConfig cfg;
    cfg.port = 17000;
    if (i > 0) cfg.bootstrap = bootstrap;
    routers.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, host), cfg));
    bootstrap.push_back(transport::Uri{
        transport::TransportKind::kUdp, net::Endpoint{host.ip(), 17000}});
    sim.schedule(static_cast<SimDuration>(i) * 3 * kSecond,
                 [node = routers.back().get()] { node->start(); });
  }
  sim.run_for(kMinute);

  net::DomainId home =
      network.add_nat_domain(net::Network::kInternet, site,
                             net::Ipv4Addr(66, 1, 1, 1), net::NatBox::Config{});
  auto& home_host = network.add_host(net::Ipv4Addr(192, 168, 1, 5), home,
                                     site, net::Host::Config{});
  ipop::IpopNode::Config cfg;
  cfg.vip = net::Ipv4Addr(172, 16, 1, 34);
  cfg.p2p.bootstrap = bootstrap;
  ipop::IpopNode node(p2p::NodeDeps::sim(sim, network, home_host), cfg);
  node.start();
  sim.run_for(2 * kMinute);
  ASSERT_TRUE(node.p2p().routable());

  // The ISP renumbers: every existing translation is forgotten.
  network.nat_of_domain(home)->flush_mappings();

  // Stale inbound paths die; keepalives + relinking must restore full
  // routability without any restart of the node.
  sim.run_for(5 * kMinute);
  EXPECT_TRUE(node.p2p().routable());

  // And traffic flows again end-to-end: a router can route data to it.
  int got = 0;
  node.p2p().set_data_handler(
      [&got](const p2p::Address&, BytesView) { ++got; });
  // Stale forwarding state at individual routers may take another
  // keepalive cycle to clear; a few probes must get through.
  for (int i = 0; i < 5; ++i) {
    routers[2]->send_data(node.p2p().address(), Bytes{0x42});
    sim.run_for(30 * kSecond);
  }
  EXPECT_GE(got, 1);
}

// --------------------------------------------- TCP under adverse networks

class TcpLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossSweep, TransferCompletesUnderLoss) {
  IpopOverlay net(3, /*seed=*/73);
  net.start_all();
  net.sim.run_until(kMinute);
  net.network.set_same_site(
      net::LinkModel{1 * kMillisecond, 100 * kMicrosecond, GetParam()});

  vtcp::TcpStack stack0(net.sim, *net.nodes[0]);
  vtcp::TcpStack stack1(net.sim, *net.nodes[1]);
  constexpr std::size_t kTotal = 128 * 1024;
  std::size_t got = 0;
  stack1.listen(80, [&](std::shared_ptr<vtcp::TcpSocket> s) {
    s->set_data_handler([&](const Bytes& d) { got += d.size(); });
  });
  auto client = stack0.connect(net.vip(1), 80);
  std::size_t queued = 0;
  auto feed = [&] {
    while (queued < kTotal && client->send_buffer_room() > 0) {
      std::size_t n = std::min<std::size_t>(client->send_buffer_room(),
                                            std::min<std::size_t>(
                                                kTotal - queued, 8192));
      client->send(Bytes(n, 0x3c));
      queued += n;
    }
  };
  client->set_established_handler(feed);
  client->set_writable_handler(feed);
  net.sim.run_for(30 * kMinute);
  EXPECT_EQ(got, kTotal) << "loss rate " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.10));

// ------------------------------------------------ NAT-type linking matrix

struct NatCase {
  net::NatType type;
  bool hairpin;
};

class NatTraversalMatrix : public ::testing::TestWithParam<NatCase> {};

TEST_P(NatTraversalMatrix, TwoNatedPeersEventuallyLink) {
  // Two IPOP nodes behind separate NATs of the parameterized type must
  // form a direct shortcut under traffic (symmetric NATs are the known
  // exception: hole punching needs stable per-destination ports, so
  // only multi-hop connectivity is required there).
  NatCase param = GetParam();
  sim::Simulator sim(79);
  net::Network network(sim);
  auto site = network.add_site("s");

  std::vector<std::unique_ptr<p2p::Node>> routers;
  std::vector<transport::Uri> bootstrap;
  for (int i = 0; i < 6; ++i) {
    auto& host = network.add_host(
        net::Ipv4Addr(128, 1, 0, static_cast<std::uint8_t>(i + 1)),
        net::Network::kInternet, site, net::Host::Config{});
    p2p::NodeConfig cfg;
    cfg.port = 17000;
    if (i > 0) cfg.bootstrap = bootstrap;
    routers.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, host), cfg));
    bootstrap.push_back(transport::Uri{
        transport::TransportKind::kUdp, net::Endpoint{host.ip(), 17000}});
    routers.back()->start();
  }

  auto make_node = [&](std::uint8_t n, net::Ipv4Addr vip) {
    net::NatBox::Config nat;
    nat.type = param.type;
    nat.hairpin = param.hairpin;
    auto domain = network.add_nat_domain(net::Network::kInternet, site,
                                         net::Ipv4Addr(200, 0, 0, n), nat);
    auto& host = network.add_host(net::Ipv4Addr(192, 168, n, 5), domain,
                                  site, net::Host::Config{});
    ipop::IpopNode::Config cfg;
    cfg.vip = vip;
    cfg.p2p.bootstrap = bootstrap;
    cfg.p2p.shortcut.threshold = 5.0;
    return std::make_unique<ipop::IpopNode>(
          p2p::NodeDeps::sim(sim, network, host), cfg);
  };
  auto a = make_node(1, net::Ipv4Addr(172, 16, 1, 2));
  auto b = make_node(2, net::Ipv4Addr(172, 16, 1, 3));
  a->start();
  b->start();
  sim.run_for(kMinute);
  ASSERT_TRUE(a->p2p().routable());
  ASSERT_TRUE(b->p2p().routable());

  ipop::IcmpService icmp_a(*a);
  ipop::IcmpService icmp_b(*b);
  int replies = 0;
  icmp_a.set_reply_handler([&](net::Ipv4Addr, std::uint16_t, std::uint16_t,
                               SimDuration) { ++replies; });
  for (int s = 1; s <= 240; ++s) {
    icmp_a.ping(b->vip(), 1, static_cast<std::uint16_t>(s));
    sim.run_for(kSecond);
  }
  // Connectivity always holds (multi-hop via public routers).
  EXPECT_GT(replies, 200);
  if (param.type != net::NatType::kSymmetric) {
    EXPECT_TRUE(a->p2p().has_direct(b->p2p().address()))
        << "hole punching must succeed for " << to_string(param.type);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NatTypes, NatTraversalMatrix,
    ::testing::Values(NatCase{net::NatType::kFullCone, false},
                      NatCase{net::NatType::kRestrictedCone, false},
                      NatCase{net::NatType::kPortRestricted, false},
                      NatCase{net::NatType::kPortRestricted, true},
                      NatCase{net::NatType::kSymmetric, false}));

// ------------------------------------------------------- ring-size sweep

class RingSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeSweep, ConvergesAndRoutes) {
  PublicOverlay net(GetParam(), /*seed=*/83);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  // routable() demands near links on BOTH ring sides; in rings of 2-3
  // nodes the peers can land on one side of the distance metric, so the
  // strict assertion starts at 5 nodes.  Data delivery is asserted for
  // every size.
  if (GetParam() >= 5) {
    EXPECT_EQ(net.routable_count(), GetParam());
  }

  // Spot-check routing across the ring.
  int received = 0;
  int senders = std::min(GetParam() - 1, 5);
  net.nodes.back()->set_data_handler(
      [&received](const p2p::Address&, BytesView) { ++received; });
  for (int i = 0; i < senders; ++i) {
    net.nodes[static_cast<std::size_t>(i)]->send_data(
        net.nodes.back()->address(), Bytes{9});
  }
  net.sim.run_for(10 * kSecond);
  EXPECT_EQ(received, senders);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeSweep,
                         ::testing::Values(2, 3, 5, 20, 50));

}  // namespace
}  // namespace wow
