#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "p2p/node.h"
#include "wow/fleet.h"

namespace wow {

/// Knobs of the megascale testbed profile (DESIGN §14): a flat public
/// overlay sized for 10^4..10^6 nodes, built to answer three questions
/// — how fast does the ring converge, how long are greedy routes, and
/// how many bytes does each node cost.  The fleet spans four sites.
struct MegascaleConfig {
  std::uint64_t seed = 1;
  int nodes = 10000;

  /// Protocol-only node profile (NodeConfig::flyweight).  False runs
  /// the full-service default — the paired baseline in BENCH_PR7.
  bool flyweight = true;
  /// Coalesced per-host final-hop delivery (one drain event per host
  /// per 1 ms quantum instead of one event per datagram).  Changes
  /// cross-host interleaving relative to the exact default path, so it
  /// is opt-in.
  bool batched_delivery = true;

  /// When > 0, joiners all share the SAME multi-endpoint bootstrap
  /// list: the first `wellknown_endpoints` hosts.  This is the
  /// flash-crowd shape — every newcomer hits the well-known service,
  /// which must spread the load through endpoint rotation, backoff, and
  /// gossip peer-sampling.  0 gives each joiner up to three distinct
  /// random earlier nodes instead, spreading the join load that a
  /// single well-known node would take.
  int wellknown_endpoints = 0;
  /// Gap between consecutive node starts.  A ramped join lands each
  /// node on an already-formed ring, so the per-join cost stays
  /// O(log n) messages; 0 starts everyone at once (the stress shape).
  SimDuration join_stagger = 20 * kMillisecond;
  /// Convergence polling cadence.  Checks run between run_until chunks
  /// — never from simulator timers — so instrumented and bare runs
  /// execute identical event sequences.
  SimDuration check_period = 10 * kSecond;
};

/// The megascale overlay under test: a Fleet of n flyweight (or
/// default) nodes, plus the measurement probes.  All probes are pure
/// observers over the connection tables — they draw nothing from the
/// RNG and schedule nothing, so measuring cannot perturb a
/// deterministic run.
class MegascaleNet : public Fleet {
 public:
  explicit MegascaleNet(const MegascaleConfig& config);

  /// Drive the join ramp, then run until the ring converges (every
  /// node routable and every successor pointer closing the ring) or 30
  /// simulated minutes pass after the last join.  Returns the
  /// convergence sim-time.
  [[nodiscard]] std::optional<SimTime> run_until_converged();

  /// Start up to `count` not-yet-started nodes at the CURRENT sim time,
  /// without running the simulator between starts — the flash-crowd
  /// burst.  run_until_converged() then skips the already-started
  /// prefix, so a test can burst, inject faults (crash a bootstrap
  /// endpoint mid-crowd), and only then wait for convergence.
  void start_burst(std::size_t count);

  /// True when all nodes are routable and a successor walk from the
  /// smallest address visits every node exactly once (ring closure).
  [[nodiscard]] bool converged() const;

  /// Greedy hop-count distribution: route `samples` random (src, dst)
  /// pairs by walking closest_to over the real tables (no traffic).
  struct HopStats {
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    int max = 0;
    std::size_t sampled = 0;
    /// Walks that failed to reach the owner within the hop cap.
    std::size_t unreached = 0;
    /// histogram[h] = number of sampled routes of length h.
    std::vector<std::size_t> histogram;
  };
  [[nodiscard]] HopStats sample_greedy_hops(std::size_t samples);

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

  /// Join-latency distribution: per node, seconds from start() to first
  /// routable() (the flash-crowd CDF metric).  Nodes that started but
  /// have not become routable count in `unjoined`.
  struct JoinStats {
    std::size_t joined = 0;
    std::size_t unjoined = 0;
    double mean_s = 0.0;
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
    double max_s = 0.0;
  };
  [[nodiscard]] JoinStats join_latency_stats() const;

  [[nodiscard]] std::size_t started() const { return started_; }

 private:
  /// Nodes ordered by ring address (valid once all joined; rebuilt
  /// lazily after the ramp).
  [[nodiscard]] const std::vector<p2p::Node*>& ring_order() const;

  MegascaleConfig config_;
  std::size_t started_ = 0;
  /// start_times_[i] = sim time nodes[i] was started (-1 = not yet);
  /// the join-latency baseline.
  std::vector<SimTime> start_times_;
  /// Probe-only randomness (hop-sample pair picking), separate from the
  /// simulator's stream so sampling never perturbs the run.
  Rng probe_rng_;
  mutable std::vector<p2p::Node*> ring_order_;
};

}  // namespace wow
