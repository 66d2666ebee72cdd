#include "wow/fleet.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stats.h"
#include "transport/uri.h"

namespace wow {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
/// Random bootstrap pool size per joiner (wellknown == 0).
constexpr std::size_t kBootstrapPool = 3;
/// Batched delivery rounds each drain up to this grid.
constexpr SimDuration kBatchQuantum = kMillisecond;
/// Give up on convergence this long after the last start.
constexpr SimDuration kSettleHorizon = 30 * kMinute;
/// Longest walk the hop probe counts as reached: a generous multiple of
/// the O(log² n) expectation; a longer one is a loop or a ring defect,
/// which the Oracle diagnoses properly.
constexpr std::size_t kMaxProbeHops = 255;

/// Sorted before summing, so the mean does not depend on input order.
Fleet::Spread spread_of(std::vector<double> values) {
  Fleet::Spread s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = percentile(values, 50);
  s.p95 = percentile(values, 95);
  s.p99 = percentile(values, 99);
  s.max = values.back();
  return s;
}

transport::Uri uri_of(const net::Host& host) {
  return transport::Uri{transport::TransportKind::kUdp,
                        net::Endpoint{host.ip(), Fleet::kPort}};
}

}  // namespace

Fleet::Fleet(const FleetConfig& config)
    : sim(config.seed), network(sim), seed_(config.seed) {
  for (int s = 0; s < std::max(config.sites, 1); ++s) {
    sites.push_back(network.add_site("site"));
  }
  const auto n = static_cast<std::size_t>(std::max(config.nodes, 0));
  const auto wellknown =
      static_cast<std::size_t>(std::max(config.wellknown, 0));
  // Random pools come from a topology stream of their own: the
  // simulator's Rng stays reserved for the run, so the event sequence is
  // a pure function of the seed whatever the pools hold.
  Rng topo(config.seed ^ 0xb007a11ULL);
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
    if (wellknown > 0) {
      for (std::size_t j = 0; j < std::min(wellknown, i); ++j) {
        cfg.bootstrap.push_back(uri_of(*hosts[j]));
      }
    } else {
      for (std::size_t p = 0; p < std::min(kBootstrapPool, i); ++p) {
        transport::Uri uri = uri_of(
            *hosts[static_cast<std::size_t>(
                topo.uniform(0, static_cast<std::int64_t>(i) - 1))]);
        // A duplicate draw leaves a smaller pool.
        if (std::find(cfg.bootstrap.begin(), cfg.bootstrap.end(), uri) ==
            cfg.bootstrap.end()) {
          cfg.bootstrap.push_back(uri);
        }
      }
    }
    nodes.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, host), cfg));
  }
  if (config.batched) network.enable_batched_delivery(kBatchQuantum);
  network.faults().set_crash_handler(
      [this](net::HostId host, bool down) { on_crash(host, down); });
}

void Fleet::start_next() {
  start_times_.push_back(sim.now());
  nodes[start_times_.size() - 1]->start();
}

void Fleet::start_all() {
  while (start_times_.size() < nodes.size()) start_next();
}

std::optional<SimTime> Fleet::run_until_converged(SimDuration join_stagger,
                                                  SimDuration check_period) {
  while (start_times_.size() < nodes.size()) {
    const SimTime due =
        static_cast<SimTime>(start_times_.size()) * join_stagger;
    if (sim.now() < due) sim.run_until(due);
    start_next();
  }
  const SimTime deadline = sim.now() + kSettleHorizon;
  while (true) {
    sim.run_for(check_period);
    const std::vector<p2p::Node*> up = live();
    if (up.size() == nodes.size() &&
        p2p::Oracle::check_ring(p2p::Oracle::Ring(up), sim.now(), seed_).ok) {
      return sim.now();
    }
    if (sim.now() >= deadline) return std::nullopt;
  }
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

Fleet::HopStats Fleet::sample_greedy_hops(std::size_t samples) const {
  const std::vector<p2p::Node*> up = live();
  if (up.size() < 2 || samples == 0) return HopStats{};
  const p2p::Oracle::Ring ring(up);
  // A stream of its own, apart from the simulator's.
  Rng pick(seed_ ^ 0x6d656761736bULL);
  const auto last = static_cast<std::int64_t>(up.size()) - 1;
  std::vector<double> hops;
  for (std::size_t s = 0; s < samples; ++s) {
    auto si = static_cast<std::size_t>(pick.uniform(0, last));
    auto di = static_cast<std::size_t>(pick.uniform(0, last));
    if (si == di) di = (di + 1) % up.size();
    const p2p::Oracle::Walk walk = p2p::Oracle::greedy_walk(
        ring, *up[si], up[di]->address(), kMaxProbeHops);
    if (walk.last == up[di]) hops.push_back(static_cast<double>(walk.hops));
  }
  const std::size_t unreached = samples - hops.size();
  return HopStats{spread_of(std::move(hops)), samples, unreached};
}

Fleet::MemoryReport Fleet::memory_report() const {
  MemoryReport r;
  r.nodes = nodes.size();
  for (const auto& n : nodes) {
    p2p::Node::MemoryFootprint f = n->memory_footprint();
    r.node_bytes += f.total();
    r.protocol_state_bytes += f.protocol_state;
  }
  r.network_bytes = network.memory_bytes();
  return r;
}

Fleet::JoinStats Fleet::join_latency_stats() const {
  std::vector<double> lat;
  for (std::size_t i = 0; i < start_times_.size(); ++i) {
    // A node never routable, or routable only in a previous incarnation
    // (a restart is pending), is still joining.
    std::optional<SimTime> since = nodes[i]->routable_since();
    if (since && *since >= start_times_[i]) {
      lat.push_back(to_seconds(*since - start_times_[i]));
    }
  }
  const std::size_t joined = lat.size();
  return JoinStats{spread_of(std::move(lat)), joined,
                   start_times_.size() - joined};
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
