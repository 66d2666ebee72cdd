#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// Node i bootstraps off hosts [0, min(wellknown, i)).  0 leaves every
  /// list empty for the caller to fill before start.
  int wellknown = 1;
};

/// The paper's testbed shape (§IV-C): public hosts, one overlay Node
/// each, every newcomer joining through a leaf link to a well-known
/// node.  Host i is 129.(i>>16).(i>>8).(i) with one shared unnamed host
/// class; node i listens on port 17000.  Nothing in a run reads a host
/// name, and public IPs only key lookups, so the layout cannot change a
/// run.  A crash fault stops the host's node and its heal restarts it.
class Fleet {
 public:
  static constexpr std::uint16_t kPort = 17000;

  explicit Fleet(const FleetConfig& config);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void start_all();
  /// Running nodes, in fleet order.
  [[nodiscard]] std::vector<p2p::Node*> live() const;
  /// Nodes that report full routability.
  [[nodiscard]] int routable_count() const;
  /// Ring components over the live nodes (Oracle::ring_census).
  [[nodiscard]] std::size_t ring_census() const;
  /// Full invariant sweep over the live nodes, stamped with the fleet's
  /// seed; `route_pairs` caps the routing sweep (0 = every pair).
  [[nodiscard]] p2p::OracleReport oracle(std::size_t route_pairs) const;

  sim::Simulator sim;
  net::Network network;
  std::vector<net::SiteId> sites;
  /// hosts[i] backs nodes[i].  Callers may append more pairs (NAT hosts,
  /// say); the crash handler covers them too.
  std::vector<net::Host*> hosts;
  std::vector<std::unique_ptr<p2p::Node>> nodes;

 private:
  void on_crash(net::HostId host, bool down);

  std::uint64_t seed_;
  /// HostId -> index into nodes; extended over appended hosts on the
  /// next crash fault, so each fault costs O(1) amortised.
  std::vector<std::size_t> node_of_host_;
  std::size_t indexed_ = 0;
};

}  // namespace wow
