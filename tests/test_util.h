#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipop/ipop_node.h"
#include "net/network.h"
#include "p2p/edge.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "transport/uri.h"
#include "wow/fleet.h"

namespace wow::testing {

/// Sum of the `name` samples labelled with `node` (0 when none).
inline double sample_value(const MetricsRegistry& metrics,
                           std::string_view name, std::string_view node) {
  double sum = 0;
  for (const auto& s : metrics.snapshot()) {
    if (s.name == name && s.labels.node == node) sum += s.value;
  }
  return sum;
}

/// A small all-public overlay for protocol tests: `n` hosts at one site,
/// each running one P2P node; every node bootstraps off node 0.
struct PublicOverlay : Fleet {
  explicit PublicOverlay(int n, std::uint64_t seed = 7,
                         p2p::NodeConfig base = {})
      : Fleet(FleetConfig{.seed = seed,
                          .nodes = n,
                          .sites = 1,
                          .node = std::move(base),
                          .wellknown = 1}) {}
};

/// The megascale testbed shape (DESIGN §14): `n` nodes on four WAN
/// sites with batched delivery, flyweight unless `node` says otherwise.
inline FleetConfig megascale(
    std::uint64_t seed, int n, int wellknown,
    p2p::NodeConfig node = p2p::NodeConfig::flyweight()) {
  return FleetConfig{.seed = seed,
                     .nodes = n,
                     .sites = 4,
                     .node = std::move(node),
                     .wellknown = wellknown,
                     .batched = true};
}

/// Twelve public hosts over three WAN sites (30 ms, 0.2% loss): the
/// smallest topology where partitions and link flaps have teeth, and
/// where a mutual neighbor at the third site can relay for two sites
/// that lost their path.  Every node bootstraps off node 0.
struct ThreeSiteOverlay : Fleet {
  explicit ThreeSiteOverlay(std::uint64_t seed)
      : Fleet(FleetConfig{.seed = seed,
                          .nodes = 12,
                          .sites = 3,
                          .node = {},
                          .wellknown = 1}) {
    network.set_default_wan(
        net::LinkModel{30 * kMillisecond, 2 * kMillisecond, 0.002});
  }
};

/// A small virtual cluster for IPOP/TCP tests: one public router node
/// plus `n` IPOP compute nodes (all public hosts at one site).  Virtual
/// IPs are 172.16.1.(i+2), matching the paper's addressing.
struct IpopOverlay {
  explicit IpopOverlay(int n, std::uint64_t seed = 7,
                       p2p::NodeConfig base = {})
      : sim(seed), network(sim) {
    site = network.add_site("site0");

    auto& router_host =
        network.add_host(net::Ipv4Addr(128, 1, 0, 1), net::Network::kInternet,
                         site, net::Host::Config{});
    p2p::NodeConfig router_cfg = base;
    router_cfg.port = 17000;
    router = std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, router_host), router_cfg);
    auto bootstrap = transport::Uri{
        transport::TransportKind::kUdp,
        net::Endpoint{router_host.ip(), 17000}};

    for (int i = 0; i < n; ++i) {
      auto ip = net::Ipv4Addr(128, 2, static_cast<std::uint8_t>(i / 250),
                              static_cast<std::uint8_t>(1 + i % 250));
      auto& host = network.add_host(ip, net::Network::kInternet, site,
                                    net::Host::Config{});
      ipop::IpopNode::Config cfg;
      cfg.vip = net::Ipv4Addr(172, 16, 1, static_cast<std::uint8_t>(i + 2));
      cfg.p2p = base;
      cfg.p2p.port = 17000;
      cfg.p2p.bootstrap = {bootstrap};
      nodes.push_back(
          std::make_unique<ipop::IpopNode>(
          p2p::NodeDeps::sim(sim, network, host), cfg));
    }
  }

  void start_all() {
    router->start();
    for (auto& n : nodes) n->start();
  }

  [[nodiscard]] net::Ipv4Addr vip(int i) const { return nodes[static_cast<std::size_t>(i)]->vip(); }

  sim::Simulator sim;
  net::Network network;
  net::SiteId site = 0;
  std::unique_ptr<p2p::Node> router;
  std::vector<std::unique_ptr<ipop::IpopNode>> nodes;
};

/// The edge-handle half of p2p::EdgeFactory, run against each backend:
/// a held handle outlives close(), reads closed, and edge_to() reopens
/// that same handle.
inline void expect_edge_handle_contract(p2p::EdgeFactory& f) {
  const net::Endpoint remote{net::Ipv4Addr(150, 0, 0, 9), 4000};
  p2p::Edge& edge = f.edge_to(remote);
  EXPECT_FALSE(edge.closed());
  edge.close();
  EXPECT_TRUE(edge.closed());
  EXPECT_EQ(&f.edge_to(remote), &edge);
  EXPECT_FALSE(edge.closed());
}

/// The advertised-URI half of p2p::EdgeFactory, run against each
/// backend: primary first; learnt public URIs freshest-first; a
/// re-observed one moves to the front; at most kMaxLearntUris learnt;
/// the primary's endpoint is never learnt; a rebind forgets them.  `f`
/// must be bound and have learnt nothing yet.
inline void expect_advertised_uri_rules(p2p::EdgeFactory& f) {
  using transport::TransportKind;
  using transport::Uri;
  const Uri primary = f.local_uri();
  auto observed = [](std::uint8_t n) {
    return Uri{TransportKind::kUdp,
               net::Endpoint{net::Ipv4Addr(150, 0, 0, n), 4000}};
  };
  EXPECT_EQ(f.local_uris(), std::vector<Uri>{primary});

  EXPECT_FALSE(f.learn_public_uri(primary));
  EXPECT_FALSE(f.learn_public_uri(Uri{TransportKind::kTcp, primary.endpoint}));
  EXPECT_TRUE(f.learn_public_uri(observed(1)));
  EXPECT_TRUE(f.learn_public_uri(observed(2)));
  EXPECT_TRUE(f.learn_public_uri(observed(3)));
  EXPECT_EQ(f.local_uris(), (std::vector<Uri>{primary, observed(3),
                                              observed(2), observed(1)}));

  EXPECT_FALSE(f.learn_public_uri(observed(1)));
  EXPECT_EQ(f.local_uris(), (std::vector<Uri>{primary, observed(1),
                                              observed(3), observed(2)}));

  static_assert(p2p::EdgeFactory::kMaxLearntUris == 3);
  EXPECT_TRUE(f.learn_public_uri(observed(4)));
  EXPECT_EQ(f.local_uris(), (std::vector<Uri>{primary, observed(4),
                                              observed(1), observed(3)}));

  f.bind(primary.endpoint.port);
  EXPECT_EQ(f.local_uris(), std::vector<Uri>{f.local_uri()});
}

}  // namespace wow::testing
