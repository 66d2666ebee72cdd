#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipop/ipop_node.h"
#include "net/network.h"
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

}  // namespace wow::testing
