#pragma once

// A simulated overlay fleet built node by node through hand-made
// NodeDeps: plain NodeDeps::sim for untraced runs, or the span-recording
// seam wrappers for traced ones.  Shared by both simulator workloads,
// together with the counter roll-ups every workload reports.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "ipop/ipop_node.h"
#include "ledger.h"
#include "net/network.h"
#include "p2p/node.h"
#include "p2p/oracle.h"
#include "report.h"
#include "sim/simulator.h"
#include "vtcp/tcp.h"

namespace wowbench {

/// Every joiner bootstraps off the first this many hosts.
constexpr int kWellKnownEndpoints = 3;

struct FleetConfig {
  std::uint64_t seed = 1;
  int nodes = 256;
  /// NodeConfig::flyweight() (megascale profile) instead of the default.
  bool flyweight = false;
  /// An IpopNode per host (so vtcp can run on it) instead of a bare Node.
  bool ipop = false;
  /// Network batched per-host delivery (the megascale fabric).
  bool batched = false;
  /// Gap between node starts; 0 starts the whole fleet in one instant.
  wow::SimDuration join_stagger = 0;
};

/// Summed protocol counters over a set of nodes.
struct NodeCounters {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_hops = 0;
  std::uint64_t dropped = 0;
  std::uint64_t parse_rejects = 0;
  std::uint64_t ctm_retries = 0;
  std::uint64_t ctm_timeouts = 0;
  std::uint64_t connections_lost = 0;
  std::uint64_t link_attempts = 0;
  std::uint64_t links_established = 0;
  std::uint64_t ipop_sent = 0;
  std::uint64_t ipop_received = 0;
  std::uint64_t ipop_dropped = 0;

  NodeCounters operator-(const NodeCounters& base) const;
};

[[nodiscard]] NodeCounters sum_counters(
    const std::vector<wow::p2p::Node*>& nodes,
    const std::vector<wow::ipop::IpopNode*>& ipops);

/// A simulator phase as the traced comparison sees it: cumulative
/// counts (or, after subtracting a start snapshot, one phase's) and the
/// phase's wall time.
struct SimPhase {
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t drops = 0;
  NodeCounters counters;
  double wall_s = 0;

  SimPhase operator-(const SimPhase& start) const;
};

class SimFleet {
 public:
  SimFleet(const FleetConfig& config, Ledger* ledger);

  /// Start every node (ramped by join_stagger), then run the simulator
  /// in `check_period` chunks until the ring converges or `horizon` of
  /// simulated time passes.  `between_chunks` runs after every chunk —
  /// outside any simulator event, so observers there cannot perturb
  /// the run.  Returns the convergence time.
  std::optional<wow::SimTime> start_and_converge(
      wow::SimDuration check_period, wow::SimDuration horizon,
      const std::function<void()>& between_chunks = {});

  /// Every node routable and both near pointers of every node closing
  /// one ring.
  [[nodiscard]] bool converged() const;
  /// Oracle ring census and full invariant sweep over the fleet.
  [[nodiscard]] std::size_t ring_census() const;
  [[nodiscard]] wow::p2p::OracleReport oracle(std::size_t route_pairs) const;
  /// Seconds from start() to first routable, per node (unjoined
  /// nodes are missing from the sample).
  [[nodiscard]] std::vector<double> join_latencies_s() const;
  /// Nodes in ring-address order.
  [[nodiscard]] const std::vector<wow::p2p::Node*>& ring_order() const;

  [[nodiscard]] NodeCounters counters() const {
    return sum_counters(nodes, ipops);
  }
  [[nodiscard]] std::optional<wow::SimTime> converged_at() const {
    return converged_at_;
  }

  /// Cumulative counts so far (wall_s left 0).
  [[nodiscard]] SimPhase snapshot() const;

  /// The traced run's observer between chunks (const reads only): time
  /// `calls` closest_to lookups for random targets on random nodes and
  /// sample every table size and the pending-event count.  Its own
  /// time is kept apart so reports can leave it out.
  void observe(wow::Rng& rng, int calls);

  struct Observed {
    std::int64_t own_ns = 0;
    std::int64_t closest_ns = 0;
    std::uint64_t closest_calls = 0;
    double table_max = 0;
    double table_sum = 0;
    std::uint64_t table_samples = 0;
    double pending_peak = 0;
  };
  [[nodiscard]] const Observed& observed() const { return observed_; }

  wow::sim::Simulator sim;
  wow::net::Network network;
  /// Ring members, parallel to the hosts; `ipops` is filled when the
  /// fleet runs IPOP.
  std::vector<wow::p2p::Node*> nodes;
  std::vector<wow::ipop::IpopNode*> ipops;

 private:
  FleetConfig config_;
  /// The fleet's shared timer wrapper; declared before the nodes that
  /// hold a reference to it.
  std::unique_ptr<TracedTimers> timers_;
  std::vector<std::unique_ptr<wow::ipop::IpopNode>> ipop_owned_;
  std::vector<std::unique_ptr<wow::p2p::Node>> node_owned_;
  std::vector<wow::SimTime> start_times_;
  std::optional<wow::SimTime> converged_at_;
  mutable std::vector<wow::p2p::Node*> ring_order_;
  Observed observed_;
};

/// Every per-layer metric of a traced simulator phase, checked against
/// its untraced twin: both must have executed the same events.
/// `traced.wall_s` includes observer time, which is left out.
void report_sim_phase(Report& report, const SimFleet& fleet,
                      const Ledger& ledger, const SimPhase& plain,
                      const SimPhase& traced, std::uint64_t seed);

/// The p2p/ipop counter metrics of a measured phase.
void report_counters(Report& report, const NodeCounters& delta);

/// The vtcp metrics of the source side of the bulk transfers.
void report_vtcp(Report& report, const wow::vtcp::TcpSocket::Stats& stats);

/// p2p.parse_ns_* / wire_ns_* on the frames the ledger captured (or a
/// synthesized frame of the nominal size when the run carried none).
void report_codec(Report& report, const Ledger& ledger, std::uint64_t seed);

/// The span self-time metrics every traced run shares, plus a
/// human-readable ledger table.
void report_spans(Report& report, const Ledger& ledger);

}  // namespace wowbench
