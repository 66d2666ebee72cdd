#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "p2p/packet.h"
#include "p2p/shortcut_config.h"
#include "transport/uri.h"

namespace wow::p2p {

/// Configuration of a Brunet P2P node.  A value is a setting here only
/// when it is a deployment setting or callers outside the tests set it
/// to different values (DESIGN §12); every fixed protocol value is a
/// named constant in the module that reads it.
struct NodeConfig {
  /// Ring address; the zero address means "draw a random one at start".
  Address address;
  std::uint16_t port = 17000;
  /// URIs of nodes already in the network (§IV-C).  Empty for the very
  /// first node.
  std::vector<transport::Uri> bootstrap;

  /// Structured-near connections maintained per ring side.
  int near_per_side = 2;
  /// Structured-far connections to maintain (the `k` of §IV-A).
  int far_target = 4;

  /// Paper's implementation tries the NAT-assigned public URI before the
  /// private URI (§V-B).  Flipping this is the ordering ablation.
  bool public_uri_first = true;
  ShortcutConfig shortcut;

  /// Keepalive (§IV-B): idle connections are pinged; after
  /// kPingRetries unanswered pings the connection state is discarded.
  SimDuration ping_interval = 15 * kSecond;

  /// Adaptive self-healing.  When true, keepalive probe spacing, the
  /// linking RTO seed, and the CTM retry timeout all derive from
  /// measured per-peer RTT (Jacobson/Karn, as in the vtcp layer); when
  /// false every timer runs on the fixed constants — the ablation
  /// baseline for the repair-latency experiment.
  bool adaptive_timers = true;

  /// Flap quarantine (keepalive.h): a peer whose connections keep dying
  /// young is quarantined, during which no ACTIVE attempt (CTM, link,
  /// shortcut) targets it.
  bool quarantine_enabled = true;

  /// Relay fallback: when an active near-link attempt exhausts every
  /// URI (non-hairpin NAT pair, §V-B), tunnel through a mutual
  /// neighbor (relay_agent.h).
  bool relay_enabled = true;

  /// How often to re-probe the bootstrap list when no direct connection
  /// points at a bootstrap endpoint.  This is the ring-merge safety net:
  /// a partition that outlives the keepalive splits the overlay into
  /// fragments that each repair into a self-consistent ring, and no
  /// amount of near/far maintenance inside a fragment can see the other
  /// one.  A fresh leaf link to the well-known bootstrap bridges the
  /// fragments; join CTMs routed across the bridge then pull the rings
  /// back together.
  SimDuration bootstrap_reprobe_interval = kMinute;

  /// Cached-peer store (Wolinsky-style bootstrap): the most recently
  /// seen live peers, refreshed from the connection table and from
  /// gossip samples in CTM join replies.  It survives stop()/restart()
  /// — the in-memory analog of the on-disk peer cache — so a restarted
  /// node rejoins through a cached peer without touching any well-known
  /// bootstrap endpoint.  0 disables the cache.
  std::size_t peer_cache_capacity = 8;

  /// Gossip peer-sampling: a join-CTM responder piggybacks up to this
  /// many random table entries on its reply.  Joiners warm their peer
  /// caches from the samples, spreading future (re)join load off the
  /// bootstrap leaves.  0 disables sampling.
  int gossip_samples = 2;

  /// Ring-census cadence: walk a census probe around the successor
  /// chain (and across leaf bridges) to measure ring size and detect
  /// foreign ring segments; a discoverer links back to the origin, and
  /// the join machinery merges the rings.  Each census costs O(ring
  /// size) frames, so it is opt-in: 0 (the default) disables it.
  SimDuration census_interval = 0;

  /// Flight-recorder depth: recent protocol events kept per node for
  /// post-mortems (32 B each, always on).  0 disables recording — the
  /// memory-capped megascale profile.
  std::size_t flight_capacity = 64;

  /// Protocol self-defense against byzantine peers (DESIGN §16): the
  /// per-endpoint MisbehaviorLedger + control-frame rate limiter, the
  /// CTM replay window, relay-header sanity checks, link-reply identity
  /// verification, and peer-cache poison resistance.  All defenses are
  /// deterministic (integer arithmetic, zero RNG) so the default path
  /// stays byte-identical; off is the ablation baseline the byzantine
  /// soak uses to prove the attacks actually land.
  bool defenses_enabled = true;

  /// Period of the maintenance tick driving the leaf/near/far overlords
  /// (jittered per node to avoid lockstep).
  SimDuration maintenance_period = 2 * kSecond;
  /// Ring stabilization period: how often a node re-announces itself
  /// with a self-addressed CTM once it is in the ring.
  SimDuration stabilize_period = 30 * kSecond;

  /// Register the per-node counters and gauges with the fleet
  /// MetricsRegistry at construction (an IpopNode and a TcpStack over
  /// the node follow the same setting).  Indispensable for the
  /// testbed's per-node dashboards, but at 52 entries of about 190 B
  /// each (≈9.5 KB per node; a 256-node Fleet's construction heap is
  /// 4.1 MB with them and 1.7 MB without) it dominates the footprint
  /// long before the protocol does — the flyweight profile turns it off
  /// and relies on fleet-level aggregation instead.
  bool register_node_metrics = true;

  /// The megascale "protocol-only" profile (DESIGN §14): the minimum
  /// ring that still converges and routes greedily, with every
  /// per-node memory amplifier off.  Steady state is ~1 near per side
  /// + 2 far ≈ 4-5 connections, no shortcut scores, no relay ledgers,
  /// no flight ring, no per-node metrics, and slow timer cadences so a
  /// 100k-1M fleet's event rate stays proportional to churn rather
  /// than to n * fast-tick.
  [[nodiscard]] static NodeConfig flyweight() {
    NodeConfig c;
    c.near_per_side = 1;
    c.far_target = 2;
    c.shortcut.enabled = false;
    c.relay_enabled = false;
    c.adaptive_timers = false;
    c.quarantine_enabled = false;
    c.flight_capacity = 0;
    c.register_node_metrics = false;
    c.ping_interval = 60 * kSecond;
    c.maintenance_period = 8 * kSecond;
    c.stabilize_period = 2 * kMinute;
    // Slowed, not disabled: the re-probe is the ring-merge safety net,
    // and a mass join without it strands fragments permanently.  At 5
    // minutes a 1M-node fleet re-probes ~3k times per simulated second
    // — noise next to its keepalive load.
    c.bootstrap_reprobe_interval = 5 * kMinute;
    // The peer cache (~64 B/entry) and gossip samples are per-node
    // amplifiers the 1 KiB/node protocol-state budget cannot afford;
    // megascale fleets bootstrap off their constructed pool instead.
    c.peer_cache_capacity = 0;
    c.gossip_samples = 0;
    // The misbehavior ledger is another per-node map the 1 KiB budget
    // cannot carry; megascale soaks model a hostile environment, not
    // hostile members.
    c.defenses_enabled = false;
    return c;
  }
};

}  // namespace wow::p2p
