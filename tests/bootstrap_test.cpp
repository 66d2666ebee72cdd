// Bootstrap-at-scale suite (DESIGN §15): multi-endpoint discovery with
// per-endpoint backoff, cached-peer rejoin, census wire format, the
// partitioned-ring merge protocol, and the flash-crowd scenarios —
// a simultaneous join burst with a bootstrap endpoint crashing
// mid-crowd must still converge to a single ring.
#include <gtest/gtest.h>

#include <cstdio>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "p2p/node.h"
#include "p2p/oracle.h"
#include "p2p/packet.h"
#include "p2p/peer_cache.h"
#include "test_util.h"
#include "transport/uri.h"

namespace wow::p2p {
namespace {

using transport::TransportKind;
using transport::Uri;

Uri uri_of(net::Ipv4Addr ip, std::uint16_t port) {
  return Uri{TransportKind::kUdp, net::Endpoint{ip, port}};
}

// --- census wire format --------------------------------------------------

TEST(CensusWire, RoundTrip) {
  Rng rng(41);
  CensusFrame f;
  f.origin = rng.ring_id();
  f.hops = 7;
  f.ttl = 99;
  f.origin_uris = {uri_of(net::Ipv4Addr(10, 0, 0, 1), 100),
                   uri_of(net::Ipv4Addr(10, 0, 0, 2), 200)};
  Bytes wire = f.serialize();
  EXPECT_EQ(frame_kind(wire), FrameKind::kCensus);
  auto parsed = CensusFrame::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->origin, f.origin);
  EXPECT_EQ(parsed->hops, f.hops);
  EXPECT_EQ(parsed->ttl, f.ttl);
  EXPECT_EQ(parsed->origin_uris, f.origin_uris);
}

TEST(CensusWire, RejectsCorruptionAndTruncation) {
  Rng rng(43);
  CensusFrame f;
  f.origin = rng.ring_id();
  f.ttl = 64;
  f.origin_uris = {uri_of(net::Ipv4Addr(10, 0, 0, 3), 300)};
  Bytes wire = f.serialize();
  // Flip one payload byte: the link checksum must catch it.
  Bytes flipped = wire;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(CensusFrame::parse(flipped).has_value());
  // Truncation at every boundary parses to nothing, never UB.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes shorter(wire.begin(),
                  wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(CensusFrame::parse(shorter).has_value()) << "cut=" << cut;
  }
  // Drift guard: adding a FrameKind must revisit the wire suites.
  EXPECT_EQ(kFrameKindCount, 5u);
}

// --- peer cache ----------------------------------------------------------

TEST(PeerCacheUnit, BoundedWithLruEviction) {
  Rng rng(5);
  PeerCache cache(/*capacity=*/3);
  std::vector<Address> peers;
  for (int i = 0; i < 4; ++i) peers.push_back(rng.ring_id());
  transport::UriList uris(std::vector<Uri>{
      uri_of(net::Ipv4Addr(10, 0, 0, 9), 900)});

  cache.note(peers[0], uris, 1 * kSecond);
  cache.note(peers[1], uris, 2 * kSecond);
  cache.note(peers[2], uris, 3 * kSecond);
  EXPECT_EQ(cache.size(), 3u);
  // Full: the least recently seen entry (peers[0]) is overwritten.
  cache.note(peers[3], uris, 4 * kSecond);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(peers[0]));
  EXPECT_TRUE(cache.contains(peers[3]));
  // The freshest entry wins the rejoin pick.
  ASSERT_NE(cache.freshest(), nullptr);
  EXPECT_EQ(cache.freshest()->addr, peers[3]);
  // Refreshing an existing entry bumps it instead of duplicating.
  cache.note(peers[1], uris, 9 * kSecond);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.freshest()->addr, peers[1]);
}

TEST(PeerCacheUnit, TtlEvictionRemovalAndDisabled) {
  Rng rng(6);
  PeerCache cache(/*capacity=*/4);
  transport::UriList uris(std::vector<Uri>{
      uri_of(net::Ipv4Addr(10, 0, 0, 8), 800)});
  Address a = rng.ring_id();
  Address b = rng.ring_id();
  cache.note(a, uris, 0);
  cache.note(b, uris, 50 * kSecond);
  // `a` is 10 s past the TTL; `b` is 40 s inside it.
  cache.evict_stale(kPeerCacheTtl + 10 * kSecond);
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  cache.remove(b);
  EXPECT_TRUE(cache.empty());
  // Empty URI lists are never cached (nothing to rejoin through).
  cache.note(a, transport::UriList{}, 0);
  EXPECT_TRUE(cache.empty());
  // A zero-capacity cache (the flyweight profile) stays empty and
  // contributes no protocol state.
  PeerCache off(/*capacity=*/0);
  off.note(a, uris, 0);
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(off.state_bytes(), 0u);
}

// --- endpoint rotation + backoff ----------------------------------------

TEST(BootstrapTest, RotatesPastDeadEndpointsWithBackoff) {
  testing::PublicOverlay net(8, /*seed=*/21);
  // Two dead well-known endpoints (hosts exist, no node listens) ahead
  // of the live one: the joiner must rotate through them, back each
  // off, and still land on the ring via the third.
  const net::Host::Config hc;
  auto& dead_a = net.network.add_host(
      net::Ipv4Addr(128, 9, 0, 1), net::Network::kInternet, net.sites[0], hc);
  auto& dead_b = net.network.add_host(
      net::Ipv4Addr(128, 9, 0, 2), net::Network::kInternet, net.sites[0], hc);
  Node& joiner = *net.nodes[7];
  joiner.mutable_config().bootstrap = {
      uri_of(dead_a.ip(), 17000), uri_of(dead_b.ip(), 17000),
      uri_of(net.hosts[0]->ip(), 17000)};

  net.start_all();
  net.sim.run_for(6 * kMinute);

  EXPECT_TRUE(joiner.routable()) << "joiner never reached the ring";
  // Both dead endpoints were probed, failed, and are now backed off.
  EXPECT_GE(joiner.stats().bootstrap_endpoint_failures, 2u);
  EXPECT_GE(joiner.stats().bootstrap_probes, 3u);
  EXPECT_GT(joiner.bootstrap_retry_after(0), 0);
  EXPECT_GT(joiner.bootstrap_retry_after(1), 0);
}

/// Bootstrap probes, endpoint failures and finished censuses concern no
/// peer, so a flight dump prints them with `peer=-`, as it does the
/// node's own start and stop, and never the zero address's brief.
TEST(BootstrapTest, PeerlessFlightEntriesPrintNoPeer) {
  NodeConfig base;
  base.census_interval = 30 * kSecond;
  testing::PublicOverlay net(4, /*seed=*/21, base);
  auto& dead = net.network.add_host(net::Ipv4Addr(128, 9, 0, 1),
                                    net::Network::kInternet, net.sites[0],
                                    net::Host::Config{});
  Node& joiner = *net.nodes[3];
  joiner.mutable_config().bootstrap = {uri_of(dead.ip(), 17000),
                                       uri_of(net.hosts[0]->ip(), 17000)};
  net.start_all();

  // The joiner's early entries, before later ones can overwrite them.
  while (joiner.stats().bootstrap_endpoint_failures == 0 &&
         net.sim.now() < kMinute) {
    net.sim.run_for(kSecond);
  }
  std::string dumps = joiner.flight().dump("joiner");
  net.sim.run_for(2 * kMinute);
  for (const auto& n : net.nodes) {
    dumps += n->flight().dump(n->address().brief());
  }

  const char* const kPeerless[] = {"bootstrap.probe ",
                                   "bootstrap.endpoint_down ", "census.done "};
  for (const char* kind : kPeerless) {
    EXPECT_NE(dumps.find(kind), std::string::npos) << kind << "never recorded";
  }
  std::size_t from = 0;
  for (std::size_t to; (to = dumps.find('\n', from)) != std::string::npos;
       from = to + 1) {
    const std::string line = dumps.substr(from, to - from);
    EXPECT_EQ(line.find("peer=00000000"), std::string::npos) << line;
    for (const char* kind : kPeerless) {
      if (line.find(kind) != std::string::npos) {
        EXPECT_NE(line.find(" peer=- "), std::string::npos) << line;
      }
    }
  }
}

// --- cached-peer rejoin --------------------------------------------------

TEST(BootstrapTest, CachedPeerRejoinWithoutAnyBootstrapEndpoint) {
  testing::PublicOverlay net(5, /*seed=*/33);
  net.start_all();
  net.sim.run_for(5 * kMinute);  // converge + a few cache refreshes
  ASSERT_EQ(net.routable_count(), 5);

  Node& mover = *net.nodes[3];
  ASSERT_GT(mover.peer_cache().size(), 0u)
      << "cache never warmed from live connections";
  EXPECT_LE(mover.peer_cache().size(), mover.peer_cache().capacity());

  // Kill the ONLY bootstrap endpoint (node 0), then the mover.  On
  // restart the mover holds no connections and cannot reach any
  // well-known endpoint — only the warm peer cache gets it back in.
  net.nodes[0]->stop();
  mover.stop();
  EXPECT_GT(mover.peer_cache().size(), 0u)
      << "cache must survive stop() like an on-disk cache file";
  net.sim.run_for(2 * kMinute);  // survivors drop the dead pair
  mover.restart();
  net.sim.run_for(4 * kMinute);

  EXPECT_TRUE(mover.routable()) << "mover never rejoined";
  EXPECT_GE(mover.stats().bootstrap_cache_rejoins, 1u)
      << "rejoin did not go through the peer cache";
}

// --- two pre-formed rings merge -----------------------------------------

TEST(BootstrapTest, TwoIndependentlyFormedRingsMergeIntoOne) {
#ifdef NDEBUG
  constexpr int kHalf = 100;
#else
  constexpr int kHalf = 12;  // debug builds: same protocol, smaller rings
#endif
  constexpr std::uint64_t kSeed = 47;
  NodeConfig node;
  node.census_interval = 30 * kSecond;
  Fleet net(FleetConfig{.seed = kSeed,
                        .nodes = 2 * kHalf,
                        .sites = 1,
                        .node = node,
                        .wellknown = 1});
  // Disjoint bootstrap universes: group A (0..kHalf-1) seeds off node
  // 0, group B off node kHalf — two overlays that have never heard of
  // each other.
  net.nodes[kHalf]->mutable_config().bootstrap.clear();
  for (int i = kHalf + 1; i < 2 * kHalf; ++i) {
    net.nodes[static_cast<std::size_t>(i)]->mutable_config().bootstrap = {
        uri_of(net.hosts[kHalf]->ip(), Fleet::kPort)};
  }
  net.start_all();

  // Let both rings form and self-stabilize independently.
  SimTime split_deadline = net.sim.now() + 20 * kMinute;
  while (net.ring_census() != 2 && net.sim.now() < split_deadline) {
    net.sim.run_for(10 * kSecond);
  }
  ASSERT_EQ(net.ring_census(), 2u)
      << "two separate rings never formed (seed=" << kSeed << ")";

  // The heal: a handful of A nodes learn B's well-known endpoint (an
  // updated bootstrap list).  Their in-ring re-probe bridges a leaf into
  // ring B, the census probe crosses it, and the merge protocol pulls
  // the rings together.
  for (std::size_t i = 1; i <= 3; ++i) {
    net.nodes[i]->mutable_config().bootstrap.push_back(
        uri_of(net.hosts[kHalf]->ip(), Fleet::kPort));
  }

  SimTime merge_deadline = net.sim.now() + 40 * kMinute;
  while (net.ring_census() != 1 && net.sim.now() < merge_deadline) {
    net.sim.run_for(10 * kSecond);
  }
  EXPECT_EQ(net.ring_census(), 1u)
      << "rings never merged (seed=" << kSeed << ")";

  std::uint64_t initiated = 0;
  std::uint64_t completed = 0;
  std::uint64_t censuses = 0;
  for (const auto& n : net.nodes) {
    initiated += n->stats().merges_initiated;
    completed += n->stats().merges_completed;
    censuses += n->stats().census_launched;
  }
  EXPECT_GE(initiated, 1u) << "merge was never initiated by the census";
  EXPECT_GE(completed, 1u) << "no merge bridge link completed";
  EXPECT_GT(censuses, 0u);

  // Full structural convergence follows the topological merge: let the
  // near repair finish, then the oracle (which includes the ring_census
  // invariant) must be green.
  SimTime settle_deadline = net.sim.now() + 30 * kMinute;
  OracleReport report;
  while (net.sim.now() < settle_deadline) {
    net.sim.run_for(30 * kSecond);
    report = net.oracle(/*route_pairs=*/2000);
    if (report.ok) break;
  }
  EXPECT_TRUE(report.ok) << report.to_string();
}

// --- flash crowd ---------------------------------------------------------

/// Shared flash-crowd scenario: `n` nodes join in one simultaneous
/// burst against a 3-endpoint well-known bootstrap service; one
/// endpoint crashes mid-crowd and restarts later.  The crowd must
/// still converge to a single ring.
void run_flash_crowd(int n, std::uint64_t seed, NodeConfig node) {
  Fleet net(testing::megascale(seed, n, /*wellknown=*/3, std::move(node)));
  net.start_all();  // the burst

  // Mid-crowd fault: well-known endpoint #1 dies while the crowd is
  // still joining, and comes back two minutes later.
  net.sim.run_for(10 * kSecond);
  net.nodes[1]->stop();
  net.sim.run_for(2 * kMinute);
  net.nodes[1]->restart();

  auto converged_at =
      net.run_until_converged(/*join_stagger=*/0, 15 * kSecond);
  ASSERT_TRUE(converged_at.has_value())
      << "flash crowd did not converge to a closed ring (seed=" << seed
      << ", nodes=" << n << ")";
  EXPECT_EQ(net.ring_census(), 1u);

  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/2000);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();

  Fleet::JoinStats js = net.join_latency_stats();
  EXPECT_EQ(js.joined, static_cast<std::size_t>(n));
  EXPECT_EQ(js.unjoined, 0u);
  EXPECT_GT(js.p50, 0.0);
  EXPECT_GE(js.p99, js.p50);
  EXPECT_LE(js.max, to_seconds(net.sim.now()));
  std::printf(
      "flash crowd n=%d seed=%llu: single ring at t=%.0fs; join latency "
      "p50=%.1fs p95=%.1fs p99=%.1fs max=%.1fs\n",
      n, static_cast<unsigned long long>(seed), to_seconds(*converged_at),
      js.p50, js.p95, js.p99, js.max);
}

TEST(FlashCrowdTest, BurstWithEndpointCrashConverges) {
  // Default (full-service) profile: gossip peer-sampling and the peer
  // cache are active, spreading the CTM join load off the three
  // well-known endpoints.
  run_flash_crowd(/*n=*/256, /*seed=*/13, NodeConfig{});
}

// The acceptance-scale run: a 10k-node simultaneous burst with a
// bootstrap endpoint crashing mid-crowd.  Needs an optimized build.
TEST(FlashCrowdTest, TenThousandNodeBurstConverges) {
#ifndef NDEBUG
  GTEST_SKIP() << "10k-node flash crowd needs an optimized build";
#else
  run_flash_crowd(/*n=*/10000, /*seed=*/1, NodeConfig::flyweight());
#endif
}

}  // namespace
}  // namespace wow::p2p
