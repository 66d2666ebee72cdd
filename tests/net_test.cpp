#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "net/faults.h"
#include "net/network.h"
#include "net/sim_edge.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace wow::net {
namespace {

struct Received {
  Endpoint src;
  Bytes payload;
};

/// Bind a recorder on `port` of `host`; the optional fills on delivery.
void expect_on(Host& host, std::uint16_t port,
               std::optional<Received>& slot) {
  host.bind(port, [&slot](const Endpoint& src, std::uint16_t,
                          SharedBytes payload) {
    slot = Received{src, payload.to_bytes()};
  });
}

Bytes payload_of(std::uint8_t v) { return Bytes{v, v, v}; }

class NetTest : public ::testing::Test {
 protected:
  NetTest() : sim(11), network(sim) {
    site_a = network.add_site("A");
    site_b = network.add_site("B");
    network.set_site_link(site_a, site_b,
                          LinkModel{20 * kMillisecond, 0, 0.0});
    network.set_lan(LinkModel{200 * kMicrosecond, 0, 0.0});
    network.set_same_site(LinkModel{1 * kMillisecond, 0, 0.0});
  }

  Host& public_host(std::uint8_t n, SiteId site) {
    return network.add_host(Ipv4Addr(128, 0, 0, n), Network::kInternet, site,
                            Host::Config{});
  }

  DomainId nat_domain(std::uint8_t n, SiteId site, NatBox::Config cfg) {
    return network.add_nat_domain(Network::kInternet, site,
                                  Ipv4Addr(150, 0, 0, n), cfg);
  }

  Host& private_host(DomainId domain, std::uint8_t n, SiteId site) {
    return network.add_host(Ipv4Addr(192, 168, static_cast<std::uint8_t>(domain), n),
                            domain, site, Host::Config{});
  }

  sim::Simulator sim;
  Network network;
  SiteId site_a = 0, site_b = 0;
};

TEST_F(NetTest, PublicToPublicDelivers) {
  Host& a = public_host(1, site_a);
  Host& b = public_host(2, site_b);
  std::optional<Received> got;
  expect_on(b, 50, got);

  network.send(a, 40, Endpoint{b.ip(), 50}, payload_of(9));
  sim.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, (Endpoint{a.ip(), 40}));
  EXPECT_EQ(got->payload, payload_of(9));
  // Transit must reflect the 20 ms site link.
  EXPECT_GE(sim.now(), 20 * kMillisecond);
  EXPECT_LT(sim.now(), 25 * kMillisecond);
}

TEST_F(NetTest, DeliveryToUnboundPortIsCounted) {
  Host& a = public_host(1, site_a);
  Host& b = public_host(2, site_a);
  network.send(a, 40, Endpoint{b.ip(), 50}, payload_of(1));
  sim.run();
  EXPECT_EQ(network.stats().drops(Network::DropReason::kNoListener), 1u);
  EXPECT_EQ(network.stats().delivered, 0u);
}

TEST_F(NetTest, PrivateToPublicTranslatesSource) {
  Host& pub = public_host(1, site_a);
  DomainId d = nat_domain(1, site_b, {});
  Host& priv = private_host(d, 10, site_b);
  std::optional<Received> got;
  expect_on(pub, 50, got);

  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(2));
  sim.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src.ip, Ipv4Addr(150, 0, 0, 1));  // NAT WAN address
  EXPECT_NE(got->src.port, 40);                    // translated port
}

TEST_F(NetTest, InboundWithoutMappingDropped) {
  Host& pub = public_host(1, site_a);
  DomainId d = nat_domain(1, site_b, {});
  Host& priv = private_host(d, 10, site_b);
  std::optional<Received> got;
  expect_on(priv, 40, got);

  // Public host sends at the NAT's address blindly.
  network.send(pub, 50, Endpoint{Ipv4Addr(150, 0, 0, 1), 20000},
               payload_of(3));
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(network.stats().drops(Network::DropReason::kNatFiltered), 1u);
}

TEST_F(NetTest, PortRestrictedReplyPath) {
  Host& pub = public_host(1, site_a);
  NatBox::Config nc;
  nc.type = NatType::kPortRestricted;
  DomainId d = nat_domain(1, site_b, nc);
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at_pub;
  std::optional<Received> at_priv;
  expect_on(pub, 50, at_pub);
  expect_on(priv, 40, at_priv);

  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  // Reply to the translated endpoint goes through.
  network.send(pub, 50, at_pub->src, payload_of(2));
  sim.run();
  ASSERT_TRUE(at_priv.has_value());
  EXPECT_EQ(at_priv->payload, payload_of(2));

  // A different source port on the same public host is filtered.
  at_priv.reset();
  network.send(pub, 51, at_pub->src, payload_of(3));
  sim.run();
  EXPECT_FALSE(at_priv.has_value());
}

TEST_F(NetTest, RestrictedConeAllowsAnyPortOfKnownIp) {
  Host& pub = public_host(1, site_a);
  NatBox::Config nc;
  nc.type = NatType::kRestrictedCone;
  DomainId d = nat_domain(1, site_b, nc);
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at_pub, at_priv;
  expect_on(pub, 50, at_pub);
  expect_on(priv, 40, at_priv);

  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  network.send(pub, 51, at_pub->src, payload_of(2));  // different port, same IP
  sim.run();
  EXPECT_TRUE(at_priv.has_value());
}

TEST_F(NetTest, FullConeAllowsThirdParty) {
  Host& pub = public_host(1, site_a);
  Host& other = public_host(2, site_a);
  NatBox::Config nc;
  nc.type = NatType::kFullCone;
  DomainId d = nat_domain(1, site_b, nc);
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at_pub, at_priv;
  expect_on(pub, 50, at_pub);
  expect_on(priv, 40, at_priv);

  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  network.send(other, 99, at_pub->src, payload_of(2));
  sim.run();
  EXPECT_TRUE(at_priv.has_value());
}

TEST_F(NetTest, PortRestrictedBlocksThirdParty) {
  Host& pub = public_host(1, site_a);
  Host& other = public_host(2, site_a);
  DomainId d = nat_domain(1, site_b, {});  // default port-restricted
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at_pub, at_priv;
  expect_on(pub, 50, at_pub);
  expect_on(priv, 40, at_priv);

  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  network.send(other, 99, at_pub->src, payload_of(2));
  sim.run();
  EXPECT_FALSE(at_priv.has_value());
}

TEST_F(NetTest, SymmetricNatUsesPerDestinationMappings) {
  Host& pub1 = public_host(1, site_a);
  Host& pub2 = public_host(2, site_a);
  NatBox::Config nc;
  nc.type = NatType::kSymmetric;
  DomainId d = nat_domain(1, site_b, nc);
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at1, at2;
  expect_on(pub1, 50, at1);
  expect_on(pub2, 50, at2);

  network.send(priv, 40, Endpoint{pub1.ip(), 50}, payload_of(1));
  network.send(priv, 40, Endpoint{pub2.ip(), 50}, payload_of(2));
  sim.run();
  ASSERT_TRUE(at1.has_value());
  ASSERT_TRUE(at2.has_value());
  EXPECT_NE(at1->src.port, at2->src.port);  // distinct mappings

  // pub2 cannot reach priv through pub1's mapping.
  std::optional<Received> at_priv;
  expect_on(priv, 40, at_priv);
  network.send(pub2, 50, at1->src, payload_of(3));
  sim.run();
  EXPECT_FALSE(at_priv.has_value());

  // But pub1 can.
  network.send(pub1, 50, at1->src, payload_of(4));
  sim.run();
  EXPECT_TRUE(at_priv.has_value());
}

TEST_F(NetTest, UdpHolePunchBetweenTwoPortRestrictedNats) {
  DomainId da = nat_domain(1, site_a, {});
  DomainId db = nat_domain(2, site_b, {});
  Host& a = private_host(da, 10, site_a);
  Host& b = private_host(db, 10, site_b);
  Host& rendezvous = public_host(3, site_a);

  // Both register with the rendezvous to open mappings & learn peers.
  std::optional<Received> from_a, from_b;
  rendezvous.bind(50, [&](const Endpoint& src, std::uint16_t,
                          SharedBytes payload) {
    Bytes data = payload.to_bytes();
    if (data == payload_of(1)) from_a = Received{src, data};
    if (data == payload_of(2)) from_b = Received{src, data};
  });
  network.send(a, 40, Endpoint{rendezvous.ip(), 50}, payload_of(1));
  network.send(b, 40, Endpoint{rendezvous.ip(), 50}, payload_of(2));
  sim.run();
  ASSERT_TRUE(from_a.has_value());
  ASSERT_TRUE(from_b.has_value());

  std::optional<Received> at_a, at_b;
  expect_on(a, 40, at_a);
  expect_on(b, 40, at_b);

  // First packet a->b dies at b's NAT, but opens a's mapping toward b.
  network.send(a, 40, from_b->src, payload_of(3));
  sim.run();
  EXPECT_FALSE(at_b.has_value());

  // b->a now passes (a sent to b already); subsequent a->b passes too.
  network.send(b, 40, from_a->src, payload_of(4));
  sim.run();
  EXPECT_TRUE(at_a.has_value());
  network.send(a, 40, from_b->src, payload_of(5));
  sim.run();
  EXPECT_TRUE(at_b.has_value());
}

TEST_F(NetTest, HairpinSupportedTranslatesBack) {
  Host& pub = public_host(1, site_a);
  // Full-cone + hairpin isolates the hairpin path from inbound
  // filtering (the VMware NAT of the paper's NWU nodes behaves this
  // way for hole-punched flows).
  NatBox::Config nc;
  nc.type = NatType::kFullCone;
  nc.hairpin = true;
  DomainId d = nat_domain(1, site_b, nc);
  Host& p1 = private_host(d, 10, site_b);
  Host& p2 = private_host(d, 11, site_b);

  // p2 talks to a public host so its public mapping exists.
  std::optional<Received> at_pub;
  expect_on(pub, 50, at_pub);
  network.send(p2, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  // p1 sends to p2's *public* mapping: the hairpin NAT loops it back
  // inside and p2 receives it.
  std::optional<Received> at_p2;
  expect_on(p2, 40, at_p2);
  network.send(p1, 40, at_pub->src, payload_of(2));
  sim.run();
  ASSERT_TRUE(at_p2.has_value());
  EXPECT_EQ(at_p2->payload, payload_of(2));
  EXPECT_EQ(network.stats().drops(Network::DropReason::kHairpin), 0u);
}

TEST_F(NetTest, HairpinUnsupportedDrops) {
  Host& pub = public_host(1, site_a);
  NatBox::Config nc;
  nc.hairpin = false;  // explicit: the UFL-style NAT
  DomainId d = nat_domain(1, site_b, nc);
  Host& p1 = private_host(d, 10, site_b);
  Host& p2 = private_host(d, 11, site_b);

  std::optional<Received> at_pub;
  expect_on(pub, 50, at_pub);
  network.send(p2, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());

  network.send(p1, 40, at_pub->src, payload_of(2));
  sim.run();
  EXPECT_EQ(network.stats().drops(Network::DropReason::kHairpin), 1u);
}

TEST_F(NetTest, SameDomainIsDirectLan) {
  DomainId d = nat_domain(1, site_a, {});
  Host& p1 = private_host(d, 10, site_a);
  Host& p2 = private_host(d, 11, site_a);
  std::optional<Received> got;
  expect_on(p2, 40, got);

  network.send(p1, 30, Endpoint{p2.ip(), 40}, payload_of(7));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, (Endpoint{p1.ip(), 30}));  // no translation
  EXPECT_LT(sim.now(), 2 * kMillisecond);        // LAN latency
}

TEST_F(NetTest, PrivateAddressInOtherDomainUnroutable) {
  DomainId d1 = nat_domain(1, site_a, {});
  DomainId d2 = nat_domain(2, site_b, {});
  Host& p1 = private_host(d1, 10, site_a);
  Host& p2 = private_host(d2, 10, site_b);
  std::optional<Received> got;
  expect_on(p2, 40, got);

  network.send(p1, 30, Endpoint{p2.ip(), 40}, payload_of(1));
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(network.stats().drops(Network::DropReason::kUnroutable), 1u);
}

TEST_F(NetTest, FirewallOpenPortFilter) {
  Host& pub = public_host(1, site_a);
  NatBox::Config nc;
  nc.type = NatType::kFullCone;
  nc.open_external_ports = {30001};
  nc.port_base = 30000;
  DomainId d = nat_domain(1, site_b, nc);
  Host& priv = private_host(d, 10, site_b);

  std::optional<Received> at_pub, at_priv;
  expect_on(pub, 50, at_pub);
  expect_on(priv, 40, at_priv);

  // First outbound gets port 30000 (closed); second flow gets 30001.
  network.send(priv, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());
  Endpoint closed = at_pub->src;
  EXPECT_EQ(closed.port, 30000);

  network.send(pub, 50, closed, payload_of(2));
  sim.run();
  EXPECT_FALSE(at_priv.has_value());  // firewall blocked despite full-cone

  network.send(priv, 41, Endpoint{pub.ip(), 50}, payload_of(3));
  sim.run();
  std::optional<Received> at_priv41;
  expect_on(priv, 41, at_priv41);
  network.send(pub, 50, Endpoint{closed.ip, 30001}, payload_of(4));
  sim.run();
  EXPECT_TRUE(at_priv41.has_value());
}

TEST_F(NetTest, NestedNatsTraverseBothLevels) {
  Host& pub = public_host(1, site_a);
  // Outer NAT on the Internet; inner NAT inside the outer domain (the
  // paper's home node sits behind VMware NAT + home router + ISP).
  DomainId outer = nat_domain(1, site_b, {});
  NatBox::Config inner_cfg;
  DomainId inner = network.add_nat_domain(
      outer, site_b, Ipv4Addr(192, 168, 1, 99), inner_cfg);
  Host& deep = network.add_host(Ipv4Addr(10, 0, 0, 5), inner, site_b,
                                Host::Config{});

  std::optional<Received> at_pub, at_deep;
  expect_on(pub, 50, at_pub);
  expect_on(deep, 40, at_deep);

  network.send(deep, 40, Endpoint{pub.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(at_pub.has_value());
  EXPECT_EQ(at_pub->src.ip, Ipv4Addr(150, 0, 0, 1));  // outer WAN ip

  network.send(pub, 50, at_pub->src, payload_of(2));
  sim.run();
  EXPECT_TRUE(at_deep.has_value());
}

TEST_F(NetTest, MoveHostDropsBindingsAndReassignsAddress) {
  DomainId d1 = nat_domain(1, site_a, {});
  DomainId d2 = nat_domain(2, site_b, {});
  Host& h = private_host(d1, 10, site_a);
  std::optional<Received> got;
  expect_on(h, 40, got);

  network.move_host(h, d2, Ipv4Addr(192, 168, 77, 10));
  EXPECT_EQ(h.domain(), d2);
  EXPECT_EQ(h.site(), site_b);
  EXPECT_EQ(h.ip(), Ipv4Addr(192, 168, 77, 10));
  EXPECT_FALSE(h.bound(40));  // bindings dropped: process must re-bind

  // Old address no longer resolves inside d1.
  Host& other = private_host(d1, 11, site_a);
  network.send(other, 30, Endpoint{Ipv4Addr(192, 168, static_cast<std::uint8_t>(d1), 10), 40},
               payload_of(1));
  sim.run();
  EXPECT_FALSE(got.has_value());
}

TEST_F(NetTest, UplinkSerializationQueues) {
  // 1 MB/s uplink: a 100 kB datagram takes 100 ms to serialize; two
  // sent back-to-back arrive ~100 ms apart.
  Host::Config slow;
  slow.uplink_bps = 1e6;
  Host& a = network.add_host(Ipv4Addr(128, 9, 0, 1), Network::kInternet,
                             site_a, slow);
  Host& b = public_host(2, site_a);
  std::vector<SimTime> arrivals;
  b.bind(50, [&](const Endpoint&, std::uint16_t, SharedBytes) {
    arrivals.push_back(sim.now());
  });

  Bytes big(100000, 0xaa);
  network.send(a, 40, Endpoint{b.ip(), 50}, big);
  network.send(a, 40, Endpoint{b.ip(), 50}, big);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(to_seconds(arrivals[1] - arrivals[0]), 0.1, 0.02);
}

TEST_F(NetTest, ProcessingDelayAddsLatency) {
  Host::Config loaded;
  loaded.proc_service = 10 * kMillisecond;
  Host& a = public_host(1, site_a);
  Host& b = network.add_host(Ipv4Addr(128, 9, 0, 2), Network::kInternet,
                             site_a, loaded);
  std::optional<Received> got;
  expect_on(b, 50, got);
  network.send(a, 40, Endpoint{b.ip(), 50}, payload_of(1));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(sim.now(), 11 * kMillisecond);  // same-site 1ms + 10ms service
}

// Guard against the drop enum drifting from its labels and gauges: a
// new DropReason added without a to_string case would report "unknown"
// in traces and shadow another reason's metric.
TEST_F(NetTest, EveryDropReasonHasUniqueLabelAndGauge) {
  std::set<std::string> labels;
  for (std::size_t i = 0; i < Network::kDropReasonCount; ++i) {
    std::string label = to_string(static_cast<Network::DropReason>(i));
    EXPECT_NE(label, "unknown") << "DropReason " << i << " lacks a label";
    EXPECT_TRUE(labels.insert(label).second)
        << "DropReason " << i << " reuses label " << label;
  }
  std::set<std::string> gauges;
  for (const auto& s : sim.metrics().snapshot()) gauges.insert(s.name);
  for (const std::string& label : labels) {
    EXPECT_EQ(gauges.count("net_dropped_" + label), 1u)
        << "no gauge registered for net_dropped_" << label;
  }
}

TEST_F(NetTest, SimEdgeHandleOutlivesClose) {
  SimEdgeFactory edges(network, public_host(1, site_a));
  wow::testing::expect_edge_handle_contract(edges);
}

TEST_F(NetTest, SimEdgeAdvertisedUriRules) {
  SimEdgeFactory edges(network, public_host(1, site_a));
  edges.bind(1700);
  wow::testing::expect_advertised_uri_rules(edges);
}

TEST_F(NetTest, NatRebootOfUnknownDomainDoesNothing) {
  DomainId nat = nat_domain(1, site_a, NatBox::Config{});
  EXPECT_NE(network.nat_of_domain(nat), nullptr);
  EXPECT_EQ(network.nat_of_domain(nat + 1), nullptr);
  EXPECT_EQ(network.nat_of_domain(-1), nullptr);

  auto plan = FaultPlan::parse("natreboot@10:99;natreboot@20:-1");
  ASSERT_TRUE(plan.has_value());
  network.faults().schedule(*plan);
  sim.run_for(kSecond);
  EXPECT_EQ(network.faults().stats().faults_begun, 2u);
  EXPECT_EQ(network.faults().active_faults(), 0u);
}

}  // namespace
}  // namespace wow::net
