#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "p2p/link_config.h"
#include "p2p/packet.h"
#include "p2p/shortcut_config.h"
#include "transport/uri.h"

namespace wow::p2p {

/// Configuration of a Brunet P2P node.
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
  std::uint8_t ttl = 48;

  LinkConfig link;
  ShortcutConfig shortcut;

  /// Keepalive (§IV-B): idle connections are pinged; after
  /// `ping_retries` unanswered pings the connection state is discarded.
  SimDuration ping_interval = 15 * kSecond;
  int ping_retries = 3;

  /// Adaptive self-healing.  When true, keepalive probe spacing, the
  /// linking RTO seed, and the CTM retry timeout all derive from
  /// measured per-peer RTT (Jacobson/Karn, as in the vtcp layer); when
  /// false every timer runs on the fixed constants above — the ablation
  /// baseline for the repair-latency experiment.
  bool adaptive_timers = true;
  /// Floor for the adaptive keepalive probe RTO; its ceiling is
  /// ping_interval / 2 so adaptation only ever detects death faster
  /// than the fixed schedule (the oracle's grace bound stays valid).
  SimDuration ping_rto_min = 250 * kMillisecond;
  /// CTM request timeout-with-retry: adaptive clamp bounds, the seed
  /// used before any reply has been measured, and the retry budget.
  /// Fixed mode expires at ctm_rto_max with no retries (seed behavior).
  SimDuration ctm_rto_min = 2 * kSecond;
  SimDuration ctm_rto_max = 2 * kMinute;
  SimDuration ctm_rto_initial = 10 * kSecond;
  int ctm_max_retries = 2;

  /// Flap quarantine: a connection that lives < flap_lifetime counts as
  /// a flap; flap_threshold flaps inside flap_window quarantine the
  /// peer for quarantine_base * 2^episode (capped at quarantine_max),
  /// during which no ACTIVE attempt (CTM, link, shortcut) targets it.
  /// Passive accepts stay open so a one-sided quarantine converges.
  bool quarantine_enabled = true;
  SimDuration flap_lifetime = 30 * kSecond;
  SimDuration flap_window = 5 * kMinute;
  int flap_threshold = 3;
  SimDuration quarantine_base = 15 * kSecond;
  SimDuration quarantine_max = 2 * kMinute;

  /// Relay fallback: when an active near-link attempt exhausts every
  /// URI (non-hairpin NAT pair, §V-B), tunnel through a mutual
  /// neighbor; probe for a direct link every relay_probe_interval.
  bool relay_enabled = true;
  SimDuration relay_probe_interval = 30 * kSecond;
  /// Per-agent wait for the tunnel handshake before trying the next
  /// candidate agent.
  SimDuration relay_request_timeout = 5 * kSecond;
  /// Candidate agents tried per relay attempt.
  int relay_max_candidates = 3;

  /// How often to re-probe the bootstrap list when no direct connection
  /// points at a bootstrap endpoint.  This is the ring-merge safety net:
  /// a partition that outlives the keepalive splits the overlay into
  /// fragments that each repair into a self-consistent ring, and no
  /// amount of near/far maintenance inside a fragment can see the other
  /// one.  A fresh leaf link to the well-known bootstrap bridges the
  /// fragments; join CTMs routed across the bridge then pull the rings
  /// back together.  0 disables re-probing.
  SimDuration bootstrap_reprobe_interval = kMinute;

  /// Per-endpoint bootstrap backoff (the PR 4 quarantine shape): after
  /// each failed probe of an endpoint, that endpoint is skipped for
  /// base * 2^(failures-1), capped at max, plus a uniform jitter of one
  /// base so a flash crowd's retries never re-synchronize on a dead
  /// endpoint.  The rotation moves on to the next endpoint meanwhile.
  SimDuration bootstrap_backoff_base = 15 * kSecond;
  SimDuration bootstrap_backoff_max = 2 * kMinute;

  /// Cached-peer store (Wolinsky-style bootstrap): the most recently
  /// seen live peers, refreshed from the connection table and from
  /// gossip samples in CTM join replies.  It survives stop()/restart()
  /// — the in-memory analog of the on-disk peer cache — so a restarted
  /// node rejoins through a cached peer without touching any well-known
  /// bootstrap endpoint.  0 disables the cache.
  std::size_t peer_cache_capacity = 8;
  /// Entries not refreshed within the TTL are evicted.
  SimDuration peer_cache_ttl = 10 * kMinute;
  /// How often the cache is refreshed from live connections.
  SimDuration peer_cache_refresh_interval = 30 * kSecond;

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
  /// Hop bound on a census probe.
  int census_ttl = 512;

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
  /// Misbehavior score that quarantines the source (weights in
  /// misbehavior.h) and the quiet window after which a score decays.
  int misbehavior_threshold = 8;
  SimDuration misbehavior_window = kMinute;
  /// Recently-answered CTM (src, token) pairs remembered per node; a
  /// duplicate inside the window is answered minimally (no link_start,
  /// no gossip) so replayed joins cannot re-trigger link attempts.
  int ctm_replay_window = 64;
  /// Token bucket on inbound CONTROL frames per source endpoint (burst
  /// capacity / sustained per-second refill).  Data frames never shed.
  /// Sized for a RING LINK, not a single peer's chatter: one endpoint
  /// bucket absorbs every multi-hop control frame the neighbor forwards
  /// — census walks, fast-cadence stabilization announces, CTM relays —
  /// which peaks around 10-20/s during a ring merge.  A shed anywhere
  /// along a census walk kills the whole walk, so the sustained rate
  /// carries ~10x headroom over that peak while still sitting orders of
  /// magnitude under the floods it sheds.
  int rate_limit_burst = 256;
  int rate_limit_per_sec = 128;
  /// Unverified peer-cache entries accepted per gossip source: a single
  /// byzantine responder can plant at most this many phantoms in the
  /// cache, and verified (live-connection) entries always outrank them.
  std::size_t gossip_per_source_cap = 2;

  /// Period of the maintenance tick driving the leaf/near/far overlords
  /// (jittered per node to avoid lockstep).
  SimDuration maintenance_period = 2 * kSecond;
  /// Ring stabilization period: how often a node re-announces itself
  /// with a self-addressed CTM once it is in the ring.
  SimDuration stabilize_period = 30 * kSecond;

  /// Register the ~37 per-node gauges/counters with the fleet
  /// MetricsRegistry at start().  Indispensable for the testbed's
  /// per-node dashboards, but at several KB of registry state per node
  /// it dominates the footprint long before the protocol does — the
  /// flyweight profile turns it off and relies on fleet-level
  /// aggregation instead.
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
