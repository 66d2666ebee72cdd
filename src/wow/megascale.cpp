#include "wow/megascale.h"

#include <algorithm>

#include "transport/uri.h"

namespace wow {

namespace {

/// Hop cap for the greedy walk probe: generous multiple of the O(log²n)
/// expectation; anything longer is counted as unreached (a loop or a
/// ring defect, which the oracle sweep diagnoses properly).
constexpr int kMaxProbeHops = 256;
/// Geographic sites, round-robin over hosts.
constexpr int kSites = 4;
/// Random bootstrap pool size per joiner (wellknown_endpoints == 0).
constexpr int kBootstrapPool = 3;
/// Batched delivery rounds each drain up to this grid.
constexpr SimDuration kBatchQuantum = kMillisecond;
/// Give up on convergence this long after the last join.
constexpr SimDuration kSettleHorizon = 30 * kMinute;

FleetConfig fleet_config(const MegascaleConfig& config) {
  return FleetConfig{.seed = config.seed,
                     .nodes = config.nodes,
                     .sites = kSites,
                     .node = config.flyweight ? p2p::NodeConfig::flyweight()
                                              : p2p::NodeConfig{},
                     .wellknown = config.wellknown_endpoints};
}

}  // namespace

MegascaleNet::MegascaleNet(const MegascaleConfig& config)
    : Fleet(fleet_config(config)), config_(config),
      probe_rng_(config.seed ^ 0x6d656761736bULL) {
  if (config_.batched_delivery) {
    network.enable_batched_delivery(kBatchQuantum);
  }
  if (config_.wellknown_endpoints > 0) return;
  // Random pools: up to kBootstrapPool distinct random earlier nodes per
  // joiner; the first joiner after node 0 necessarily gets node 0.  The
  // picks come from a topology stream of their own: the simulator's Rng
  // stays reserved for link jitter, so the event sequence is a pure
  // function of the seed whatever the pool size.
  Rng topo(config_.seed ^ 0xb007a11ULL);
  std::vector<transport::Uri> pool;
  for (int i = 1; i < config_.nodes; ++i) {
    pool.clear();
    for (int p = 0; p < std::min(kBootstrapPool, i); ++p) {
      auto j = static_cast<std::size_t>(topo.uniform(0, i - 1));
      transport::Uri uri{transport::TransportKind::kUdp,
                         net::Endpoint{hosts[j]->ip(), kPort}};
      // A duplicate draw leaves a smaller pool.
      if (std::find(pool.begin(), pool.end(), uri) == pool.end()) {
        pool.push_back(uri);
      }
    }
    // Copy-assigned, so the list holds exactly its entries.
    nodes[static_cast<std::size_t>(i)]->mutable_config().bootstrap = pool;
  }
}

void MegascaleNet::start_burst(std::size_t count) {
  if (start_times_.size() != nodes.size()) {
    start_times_.assign(nodes.size(), SimTime{-1});
  }
  for (std::size_t i = 0; i < count && started_ < nodes.size(); ++i) {
    start_times_[started_] = sim.now();
    nodes[started_]->start();
    ++started_;
  }
  ring_order_.clear();
}

std::optional<SimTime> MegascaleNet::run_until_converged() {
  // Join ramp: each node starts at i * join_stagger, riding on an
  // already-forming ring.
  if (start_times_.size() != nodes.size()) {
    start_times_.assign(nodes.size(), SimTime{-1});
  }
  while (started_ < nodes.size()) {
    SimTime due = static_cast<SimTime>(started_) * config_.join_stagger;
    if (sim.now() < due) sim.run_until(due);
    start_times_[started_] = sim.now();
    nodes[started_]->start();
    ++started_;
  }
  ring_order_.clear();  // addresses are drawn at start()

  SimTime deadline = sim.now() + kSettleHorizon;
  while (true) {
    sim.run_for(config_.check_period);
    if (converged()) return sim.now();
    if (sim.now() >= deadline) return std::nullopt;
  }
}

const std::vector<p2p::Node*>& MegascaleNet::ring_order() const {
  if (ring_order_.size() != nodes.size()) {
    ring_order_.clear();
    ring_order_.reserve(nodes.size());
    for (const auto& n : nodes) ring_order_.push_back(n.get());
    std::sort(ring_order_.begin(), ring_order_.end(),
              [](const p2p::Node* a, const p2p::Node* b) {
                return a->address() < b->address();
              });
  }
  return ring_order_;
}

bool MegascaleNet::converged() const {
  if (started_ < nodes.size()) return false;
  for (const auto& n : nodes) {
    if (!n->running() || !n->routable()) return false;
  }
  // Ring closure: everyone's successor pointer is the next address in
  // sorted order (the near_is_live_successor invariant, O(n) form).
  const auto& order = ring_order();
  std::size_t n = order.size();
  if (n < 2) return true;
  for (std::size_t i = 0; i < n; ++i) {
    const p2p::Connection* r = order[i]->connections().right_neighbor();
    if (r == nullptr) return false;
    if (r->addr != order[(i + 1) % n]->address()) return false;
  }
  return true;
}

MegascaleNet::HopStats MegascaleNet::sample_greedy_hops(std::size_t samples) {
  HopStats hs;
  if (nodes.size() < 2 || samples == 0) return hs;
  std::vector<int> lengths;
  lengths.reserve(samples);
  auto node_count = static_cast<std::int64_t>(nodes.size());
  for (std::size_t s = 0; s < samples; ++s) {
    auto si = static_cast<std::size_t>(probe_rng_.uniform(0, node_count - 1));
    auto di = static_cast<std::size_t>(probe_rng_.uniform(0, node_count - 1));
    if (si == di) di = (di + 1) % nodes.size();
    const p2p::Node* cur = nodes[si].get();
    const p2p::Address& dst = nodes[di]->address();
    int hops = 0;
    while (hops < kMaxProbeHops) {
      const p2p::Connection* next = cur->connections().closest_to(dst);
      if (next == nullptr) break;  // cur is the closest node: delivered
      const p2p::Node* next_node = nullptr;
      // The walk needs connection->node resolution; addresses are
      // random 160-bit so a sorted binary search over ring order is
      // exact and allocation-free.
      const auto& order = ring_order();
      auto it = std::lower_bound(
          order.begin(), order.end(), next->addr,
          [](const p2p::Node* a, const p2p::Address& addr) {
            return a->address() < addr;
          });
      if (it != order.end() && (*it)->address() == next->addr) {
        next_node = *it;
      }
      if (next_node == nullptr) break;  // dangling pointer: unreached
      cur = next_node;
      ++hops;
    }
    if (cur->address() == dst && hops < kMaxProbeHops) {
      lengths.push_back(hops);
    } else {
      ++hs.unreached;
    }
  }
  hs.sampled = samples;
  if (lengths.empty()) return hs;
  std::sort(lengths.begin(), lengths.end());
  double sum = 0;
  for (int h : lengths) sum += h;
  hs.mean = sum / static_cast<double>(lengths.size());
  auto at = [&](double p) {
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(lengths.size() - 1) / 100.0 + 0.5);
    return static_cast<double>(lengths[idx]);
  };
  hs.p50 = at(50);
  hs.p95 = at(95);
  hs.p99 = at(99);
  hs.max = lengths.back();
  hs.histogram.assign(static_cast<std::size_t>(hs.max) + 1, 0);
  for (int h : lengths) ++hs.histogram[static_cast<std::size_t>(h)];
  return hs;
}

MegascaleNet::MemoryReport MegascaleNet::memory_report() const {
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

MegascaleNet::JoinStats MegascaleNet::join_latency_stats() const {
  JoinStats js;
  std::vector<double> lat;
  lat.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i >= start_times_.size() || start_times_[i] < 0) continue;
    std::optional<SimTime> since = nodes[i]->routable_since();
    if (!since || *since < start_times_[i]) {
      // Never routable, or only routable in a PREVIOUS incarnation
      // (restart pending): still joining.
      ++js.unjoined;
      continue;
    }
    lat.push_back(to_seconds(*since - start_times_[i]));
  }
  js.joined = lat.size();
  if (lat.empty()) return js;
  std::sort(lat.begin(), lat.end());
  double sum = 0;
  for (double v : lat) sum += v;
  js.mean_s = sum / static_cast<double>(lat.size());
  auto at = [&](double p) {
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(lat.size() - 1) / 100.0 + 0.5);
    return lat[idx];
  };
  js.p50_s = at(50);
  js.p95_s = at(95);
  js.p99_s = at(99);
  js.max_s = lat.back();
  return js;
}

}  // namespace wow
