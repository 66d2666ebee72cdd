#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "p2p/adversary.h"
#include "p2p/misbehavior.h"
#include "p2p/oracle.h"
#include "p2p/peer_cache.h"
#include "test_util.h"

namespace wow {
namespace {

using testing::PublicOverlay;

// Every attack→defense pair from DESIGN §16, plus the honest-majority
// convergence soak.  The same adversary fabric drives both polarities:
// defenses ON must keep the containment oracle green, defenses OFF must
// reproduce the violation the defense exists to prevent.

// ------------------------------------------------------- building blocks

p2p::Address addr_of(std::uint64_t n) { return p2p::Address{n}; }

net::Endpoint ep(std::uint8_t last, std::uint16_t port = 17000) {
  return net::Endpoint{net::Ipv4Addr(10, 0, 0, last), port};
}

// ------------------------------------------------- keyed defense tokens

TEST(DefenseTokens, KeyedStreamIsNotGuessableOrZero) {
  // Real identities are uniform 160-bit draws (the token key is the
  // address's high half, so low-limb-only toy addresses all share one
  // stream — the helper is keyed for the production address space).
  Rng rng(123);
  const p2p::Address a = rng.ring_id();
  const p2p::Address b = rng.ring_id();
  std::set<std::uint32_t> seen;
  for (std::uint32_t c = 0; c < 256; ++c) {
    std::uint32_t t = p2p::defense_token(a, c);
    ASSERT_NE(t, 0u);
    // The spray range a sequential mint would occupy.
    ASSERT_GT(t, 64u) << "counter " << c << " landed in the guessable band";
    seen.insert(t);
  }
  EXPECT_EQ(seen.size(), 256u) << "token stream collided with itself";
  // Different identities mint disjoint-looking streams.
  EXPECT_NE(p2p::defense_token(a, 0), p2p::defense_token(b, 0));
  // Deterministic: same key, same counter, same token.
  EXPECT_EQ(p2p::defense_token(a, 7), p2p::defense_token(a, 7));
}

// ---------------------------------------------------- misbehavior ledger

TEST(MisbehaviorLedger, GarbageSourceCrossesThresholdOnce) {
  p2p::MisbehaviorLedger ledger;
  const net::Endpoint bad = ep(1);
  SimTime now = kSecond;
  bool crossed = false;
  for (int i = 0; i < 8; ++i) {
    crossed = ledger.note(bad, p2p::kMisbehaviorParseReject, now);
  }
  EXPECT_TRUE(crossed) << "8 weight-1 notes must cross the threshold of 8";
  // The score resets on crossing: one punishment per episode.
  EXPECT_FALSE(ledger.note(bad, p2p::kMisbehaviorParseReject, now));
}

TEST(MisbehaviorLedger, QuietWindowForgivesHonestCorruption) {
  p2p::MisbehaviorLedger ledger;
  const net::Endpoint flaky = ep(2);
  SimTime now = kSecond;
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(ledger.note(flaky, p2p::kMisbehaviorParseReject, now));
  }
  // One full quiet window: the slate wipes clean.
  now += kMinute + kSecond;
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(ledger.note(flaky, p2p::kMisbehaviorParseReject, now))
        << "decayed score must not accumulate across quiet windows";
  }
}

TEST(MisbehaviorLedger, RateLimiterShedsControlBurst) {
  p2p::MisbehaviorLedger ledger;
  const net::Endpoint noisy = ep(3);
  SimTime now = kSecond;
  int admitted = 0;
  for (int i = 0; i < 2 * p2p::kRateLimitBurst; ++i) {
    if (ledger.admit_control(noisy, now)) ++admitted;
  }
  EXPECT_EQ(admitted, p2p::kRateLimitBurst)
      << "burst capacity is 256 control frames";
  // Refill is exact integer arithmetic: one second buys kRateLimitPerSec.
  now += kSecond;
  admitted = 0;
  for (int i = 0; i < 2 * p2p::kRateLimitBurst; ++i) {
    if (ledger.admit_control(noisy, now)) ++admitted;
  }
  EXPECT_EQ(admitted, p2p::kRateLimitPerSec);
  // A different endpoint is untouched: buckets are per source.
  EXPECT_TRUE(ledger.admit_control(ep(4), now));
}

// -------------------------------------------------- peer cache poisoning

TEST(PeerCachePoison, PerSourceCapRefusesFloodOfHearsay) {
  p2p::PeerCache cache(/*capacity=*/32);
  const p2p::Address liar = addr_of(99);
  transport::UriList uris;
  uris.push_back(transport::Uri{transport::TransportKind::kUdp, ep(9)});
  int accepted = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (cache.note(addr_of(1000 + i), uris, kSecond, /*verified=*/false,
                   liar)) {
      ++accepted;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(accepted), p2p::kGossipPerSourceCap)
      << "a single gossip source may plant at most 2";
  // A second source gets its own allowance — the cap is per source, not
  // a global hearsay freeze.
  EXPECT_TRUE(cache.note(addr_of(2000), uris, kSecond, /*verified=*/false,
                         addr_of(98)));
}

TEST(PeerCachePoison, VerifiedEntriesOutrankAndOutliveHearsay) {
  p2p::PeerCache cache(/*capacity=*/4);
  transport::UriList uris;
  uris.push_back(transport::Uri{transport::TransportKind::kUdp, ep(9)});
  // One stale first-hand entry, then a flood of fresher hearsay, each
  // from its own source so the per-source cap admits it.
  cache.note(addr_of(1), uris, kSecond, /*verified=*/true);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.note(addr_of(100 + i), uris, 10 * kSecond, /*verified=*/false,
               addr_of(200 + i));
  }
  // The rejoin path must still pick the first-hand entry, and the
  // eviction churn must have consumed hearsay, not the verified entry.
  ASSERT_NE(cache.freshest(), nullptr);
  EXPECT_EQ(cache.freshest()->addr, addr_of(1));
  EXPECT_EQ(cache.verified_count(), 1u);
  // Gossip about a verified peer cannot strip its verification.
  cache.note(addr_of(1), uris, 20 * kSecond, /*verified=*/false, addr_of(99));
  EXPECT_EQ(cache.verified_count(), 1u);
}

// -------------------------------------------------- attack→defense pairs
//
// Each pair runs the SAME adversary behavior against a formed overlay,
// once with defenses and once without, and asserts the defense-specific
// counters plus the containment oracle's verdict.  The adversary rides
// node `kAdversary` — honestly joined, attacking its ring neighbors.

constexpr std::size_t kAdversary = 3;

struct ByzantineNet {
  explicit ByzantineNet(bool defenses, p2p::AdversaryAgent::Behaviors mix,
                        int n = 10, std::uint64_t seed = 411)
      : base_config(), net(make_net(defenses, n, seed)) {
    net.start_all();
    net.sim.run_until(3 * kMinute);
    agent = std::make_unique<p2p::AdversaryAgent>(
        *net.nodes[kAdversary], net.sim, seed ^ 0xadl, mix);
    agent->start();
  }

  static PublicOverlay make_net(bool defenses, int n, std::uint64_t seed) {
    p2p::NodeConfig cfg;
    cfg.defenses_enabled = defenses;
    return PublicOverlay(n, seed, cfg);
  }

  /// Oracle verdict with the full identity roster armed.
  [[nodiscard]] p2p::OracleReport verdict() {
    p2p::Oracle::Config cfg;
    cfg.known_addresses = addresses();
    cfg.adversary_addresses = {net.nodes[kAdversary]->address()};
    std::vector<p2p::Node*> live;
    for (auto& n : net.nodes) {
      if (n->running()) live.push_back(n.get());
    }
    return p2p::Oracle::check(live, net.sim.now(), cfg);
  }

  [[nodiscard]] std::vector<p2p::Address> addresses() const {
    std::vector<p2p::Address> out;
    for (const auto& n : net.nodes) out.push_back(n->address());
    return out;
  }

  /// Sum of a per-node counter over the honest fleet.
  template <typename F>
  [[nodiscard]] std::uint64_t sum(F f) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < net.nodes.size(); ++i) {
      if (i != kAdversary) total += f(*net.nodes[i]);
    }
    return total;
  }

  p2p::NodeConfig base_config;
  PublicOverlay net;
  std::unique_ptr<p2p::AdversaryAgent> agent;
};

TEST(AttackDefense, ForgedRelayInstallsPhantomOnlyWithoutDefenses) {
  p2p::AdversaryAgent::Behaviors mix{};
  mix.spoof_ctm = mix.replay_ctm = mix.forge_census = mix.poison_gossip =
      false;  // forge_relay only

  {
    ByzantineNet on(/*defenses=*/true, mix);
    on.net.sim.run_for(5 * kMinute);
    EXPECT_GT(on.agent->stats().forged_relay_frames, 0u);
    EXPECT_GT(on.sum([](const p2p::Node& n) {
                return n.stats().forged_relay_rejects;
              }),
              0u)
        << "honest nodes must be REJECTING the forged relay frames";
    auto report = on.verdict();
    EXPECT_TRUE(report.ok) << report.to_string();
  }
  {
    ByzantineNet off(/*defenses=*/false, mix);
    off.net.sim.run_for(5 * kMinute);
    auto report = off.verdict();
    ASSERT_FALSE(report.ok)
        << "defenses off: the no-handshake phantom install must land";
    EXPECT_EQ(report.invariant, "phantom_identity") << report.to_string();
  }
}

TEST(AttackDefense, CtmReplayWindowAnswersDuplicatesMinimally) {
  p2p::AdversaryAgent::Behaviors mix{};
  mix.spoof_ctm = mix.forge_relay = mix.forge_census = mix.poison_gossip =
      false;  // replay_ctm only

  ByzantineNet on(/*defenses=*/true, mix);
  on.net.sim.run_for(5 * kMinute);
  EXPECT_GT(on.agent->stats().replayed_requests, 0u);
  EXPECT_GT(
      on.sum([](const p2p::Node& n) { return n.stats().replays_detected; }),
      0u)
      << "the replay window must be catching the duplicate (src, token)";
  auto report = on.verdict();
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(AttackDefense, SpoofedRepliesMissKeyedTokensAndInstallNothing) {
  p2p::AdversaryAgent::Behaviors mix{};
  mix.replay_ctm = mix.forge_relay = mix.forge_census = mix.poison_gossip =
      false;  // spoof_ctm only

  ByzantineNet on(/*defenses=*/true, mix);
  on.net.sim.run_for(5 * kMinute);
  EXPECT_GT(on.agent->stats().spoofed_ctm_replies, 0u);
  auto report = on.verdict();
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(AttackDefense, ForgedCensusIsArcBoundedAndInstallsNothing) {
  p2p::AdversaryAgent::Behaviors mix{};
  mix.spoof_ctm = mix.replay_ctm = mix.forge_relay = mix.poison_gossip =
      false;  // forge_census only

  ByzantineNet on(/*defenses=*/true, mix);
  // The honest fleet runs the census so the merge rule is live —
  // exactly the machinery the forged origins try to conscript.
  on.net.sim.run_for(8 * kMinute);
  EXPECT_GT(on.agent->stats().forged_census_frames, 0u);
  auto report = on.verdict();
  EXPECT_TRUE(report.ok) << report.to_string();
}

// ------------------------------------------- honest-majority convergence

/// The composite soak: every behavior on, 10% adversaries, and the ring
/// must still converge with zero phantom identities.  (The 512-node
/// 8-seed version of this runs as chaos_runner --profile=byzantine in
/// the CI soak matrix; this is the in-tree fast path.)
TEST(ByzantineSoak, HonestMajorityConvergesUnderFullAttackMix) {
  p2p::NodeConfig cfg;
  cfg.census_interval = kMinute;  // census + merge machinery under fire
  PublicOverlay net(40, /*seed=*/4242, cfg);
  net.start_all();

  std::vector<std::unique_ptr<p2p::AdversaryAgent>> adversaries;
  std::vector<p2p::Address> cast;
  for (std::size_t i = 10; i < net.nodes.size(); i += 10) {
    adversaries.push_back(std::make_unique<p2p::AdversaryAgent>(
        *net.nodes[i], net.sim, 4242 + i));
    cast.push_back(net.nodes[i]->address());
    adversaries.back()->start();  // attacking while the ring FORMS
  }
  ASSERT_EQ(adversaries.size(), 3u);
  net.sim.run_until(15 * kMinute);

  std::uint64_t injected = 0;
  for (const auto& a : adversaries) injected += a->stats().frames_injected;
  EXPECT_GT(injected, 1000u) << "the fabric must have actually attacked";

  p2p::Oracle::Config ocfg;
  for (const auto& n : net.nodes) {
    ocfg.known_addresses.push_back(n->address());
  }
  ocfg.adversary_addresses = cast;
  std::vector<p2p::Node*> live;
  for (auto& n : net.nodes) live.push_back(n.get());
  auto report = p2p::Oracle::check(live, net.sim.now(), ocfg);
  EXPECT_TRUE(report.ok) << report.to_string();
}

/// Identical byzantine runs are identical: the fabric draws only from
/// its own seeded Rng, so attack schedules are reproducible artifacts.
TEST(ByzantineSoak, AdversaryFabricIsDeterministic) {
  auto run_once = [] {
    p2p::NodeConfig cfg;
    PublicOverlay net(12, /*seed=*/77, cfg);
    net.start_all();
    net.sim.run_until(2 * kMinute);
    p2p::AdversaryAgent agent(*net.nodes[4], net.sim, 909);
    agent.start();
    net.sim.run_for(5 * kMinute);
    std::uint64_t rejects = 0;
    for (const auto& n : net.nodes) {
      rejects += n->stats().forged_relay_rejects +
                 n->stats().replays_detected + n->stats().rate_limit_sheds;
    }
    return std::pair<std::uint64_t, std::uint64_t>(
        agent.stats().frames_injected, rejects);
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first, 0u);
}

}  // namespace
}  // namespace wow
