#include "wow/fleet.h"

#include <algorithm>
#include <string>

#include "transport/uri.h"

namespace wow {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

}  // namespace

Fleet::Fleet(const FleetConfig& config)
    : sim(config.seed), network(sim), seed_(config.seed) {
  for (int s = 0; s < std::max(config.sites, 1); ++s) {
    sites.push_back(network.add_site("site" + std::to_string(s)));
  }
  const auto n = static_cast<std::size_t>(std::max(config.nodes, 0));
  const auto wellknown =
      static_cast<std::size_t>(std::max(config.wellknown, 0));
  hosts.reserve(n);
  nodes.reserve(n);
  // One shared host class: the whole fleet costs a single entry in the
  // network's host config pool.
  const net::Host::Config host_config;
  for (std::size_t i = 0; i < n; ++i) {
    // Flat mapping from the index bytes: unique and public to 2^24, and
    // clear of the 60.x and 192.168 ranges NAT topologies use.
    auto u = static_cast<std::uint32_t>(i);
    auto& host = network.add_host(
        net::Ipv4Addr(129, static_cast<std::uint8_t>(u >> 16),
                      static_cast<std::uint8_t>(u >> 8),
                      static_cast<std::uint8_t>(u)),
        net::Network::kInternet, sites[i % sites.size()], host_config);
    hosts.push_back(&host);
    p2p::NodeConfig cfg = config.node;
    cfg.port = kPort;
    cfg.bootstrap.clear();
    for (std::size_t j = 0; j < std::min(wellknown, i); ++j) {
      cfg.bootstrap.push_back(transport::Uri{
          transport::TransportKind::kUdp,
          net::Endpoint{hosts[j]->ip(), kPort}});
    }
    nodes.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, host), cfg));
  }
  network.faults().set_crash_handler(
      [this](net::HostId host, bool down) { on_crash(host, down); });
}

void Fleet::start_all() {
  for (auto& n : nodes) n->start();
}

std::vector<p2p::Node*> Fleet::live() const {
  std::vector<p2p::Node*> out;
  out.reserve(nodes.size());
  for (const auto& n : nodes) {
    if (n->running()) out.push_back(n.get());
  }
  return out;
}

int Fleet::routable_count() const {
  return static_cast<int>(
      std::count_if(nodes.begin(), nodes.end(),
                    [](const auto& n) { return n->routable(); }));
}

std::size_t Fleet::ring_census() const {
  return p2p::Oracle::ring_census(live());
}

p2p::OracleReport Fleet::oracle(std::size_t route_pairs) const {
  p2p::Oracle::Config cfg;
  cfg.seed = seed_;
  cfg.max_route_pairs = route_pairs;
  return p2p::Oracle::check(live(), sim.now(), cfg);
}

void Fleet::on_crash(net::HostId host, bool down) {
  for (; indexed_ < hosts.size(); ++indexed_) {
    auto id = static_cast<std::size_t>(hosts[indexed_]->id());
    if (node_of_host_.size() <= id) node_of_host_.resize(id + 1, kNoNode);
    node_of_host_[id] = indexed_;
  }
  auto id = static_cast<std::size_t>(host);
  if (id >= node_of_host_.size() || node_of_host_[id] == kNoNode) return;
  p2p::Node& n = *nodes[node_of_host_[id]];
  if (down && n.running()) n.stop();
  if (!down && !n.running()) n.restart();
}

}  // namespace wow
