#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.h"
#include "p2p/node.h"
#include "p2p/oracle.h"
#include "sim/simulator.h"

namespace wow {

/// Shape of a fleet of public overlay routers (DESIGN §10).
struct FleetConfig {
  std::uint64_t seed = 1;
  int nodes = 0;
  /// WAN sites; host i sits on site i % sites.
  int sites = 1;
  /// Every node's configuration; the fleet sets `port` and `bootstrap`.
  p2p::NodeConfig node;
  /// Node i bootstraps off hosts [0, min(wellknown, i)).  0 gives node i
  /// up to three distinct random earlier nodes instead, drawn from a
  /// topology stream of their own, so the run stays a pure function of
  /// the seed.
  int wellknown = 1;
  /// Coalesced per-host final-hop delivery: one drain event per host
  /// per 1 ms quantum instead of one per datagram (DESIGN §14).  It
  /// changes cross-host interleaving, so it is opt-in.
  bool batched = false;
};

/// The paper's testbed shape (§IV-C): public hosts, one overlay Node
/// each, every newcomer joining through a leaf link to a well-known
/// node.  Host i is 129.(i>>16).(i>>8).(i) with one shared unnamed host
/// class; node i listens on port 17000.  Nothing in a run reads a host
/// name, and public IPs only key lookups, so the layout cannot change a
/// run.  A crash fault stops the host's node and its heal restarts it.
///
/// The probes (hop, memory and join statistics) are pure observers over
/// the connection tables: they schedule nothing and draw nothing from
/// the simulator's RNG, so measuring cannot perturb a deterministic run.
class Fleet {
 public:
  static constexpr std::uint16_t kPort = 17000;

  explicit Fleet(const FleetConfig& config);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Start every node not started yet at the current sim time, without
  /// running the simulator between starts: the flash-crowd burst.
  void start_all();
  /// Start the nodes not started yet one per `join_stagger` (node i at
  /// i * join_stagger), then run until every node runs and the Oracle
  /// finds the ring legitimate (Oracle::check_ring), checking every
  /// `check_period` between run chunks, never from a simulator timer.
  /// Returns that sim time, or nullopt 30 simulated minutes after the
  /// last start.
  [[nodiscard]] std::optional<SimTime> run_until_converged(
      SimDuration join_stagger, SimDuration check_period);

  /// Running nodes, in fleet order.
  [[nodiscard]] std::vector<p2p::Node*> live() const;
  /// Nodes that report full routability.
  [[nodiscard]] int routable_count() const;
  /// Ring components over the live nodes (Oracle::ring_census).
  [[nodiscard]] std::size_t ring_census() const;
  /// Full invariant sweep over the live nodes, stamped with the fleet's
  /// seed; `route_pairs` caps the routing sweep (0 = every pair).
  [[nodiscard]] p2p::OracleReport oracle(std::size_t route_pairs) const;

  /// Mean, interpolated percentiles (wow::percentile) and maximum of a
  /// sample; all zero for an empty one.
  struct Spread {
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  /// Greedy hop counts of `samples` random (src, dst) pairs of running
  /// nodes, walked over the real tables (Oracle::greedy_walk, no
  /// traffic).  The pairs are a function of the seed.
  struct HopStats : Spread {
    std::size_t sampled = 0;
    /// Walks that failed to reach the owner within the hop cap.
    std::size_t unreached = 0;
  };
  [[nodiscard]] HopStats sample_greedy_hops(std::size_t samples) const;

  /// Fleet memory roll-up (bytes/node accounting, DESIGN §14).
  struct MemoryReport {
    std::size_t nodes = 0;
    /// Sum of Node::MemoryFootprint::total() over the fleet.
    std::size_t node_bytes = 0;
    /// Live dynamic protocol state only — the ~1 KB/node budget metric.
    std::size_t protocol_state_bytes = 0;
    /// The network fabric's share (hosts, domains, queues, pools).
    std::size_t network_bytes = 0;

    [[nodiscard]] double node_bytes_per_node() const {
      return nodes == 0 ? 0.0
                        : static_cast<double>(node_bytes) /
                              static_cast<double>(nodes);
    }
    [[nodiscard]] double protocol_bytes_per_node() const {
      return nodes == 0 ? 0.0
                        : static_cast<double>(protocol_state_bytes) /
                              static_cast<double>(nodes);
    }
  };
  [[nodiscard]] MemoryReport memory_report() const;

  /// Join latency in seconds: per node started by start_all() or
  /// run_until_converged(), from its start to its first routable().  A
  /// started node not routable since its start counts in `unjoined`.
  struct JoinStats : Spread {
    std::size_t joined = 0;
    std::size_t unjoined = 0;
  };
  [[nodiscard]] JoinStats join_latency_stats() const;

  sim::Simulator sim;
  net::Network network;
  std::vector<net::SiteId> sites;
  /// hosts[i] backs nodes[i].  Callers may append more pairs (NAT hosts,
  /// say) before the first start; the crash handler covers them too.
  std::vector<net::Host*> hosts;
  std::vector<std::unique_ptr<p2p::Node>> nodes;

 private:
  void start_next();
  void on_crash(net::HostId host, bool down);

  std::uint64_t seed_;
  /// start_times_[i]: when nodes[i] was started; the first
  /// start_times_.size() nodes are started.
  std::vector<SimTime> start_times_;
  /// HostId -> index into nodes; extended over appended hosts on the
  /// next crash fault, so each fault costs O(1) amortised.
  std::vector<std::size_t> node_of_host_;
  std::size_t indexed_ = 0;
};

}  // namespace wow
