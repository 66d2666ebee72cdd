// Adaptive self-healing layer: RTT-driven timers, flap quarantine, and
// relay fallback for un-linkable pairs.  Every scenario runs real nodes
// over the simulated fabric; the invariant oracle is the judge where a
// whole-ring claim is made.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/faults.h"
#include "p2p/oracle.h"
#include "test_util.h"

namespace wow {
namespace {

std::uint64_t sum_stat(const Fleet& net,
                       std::uint64_t p2p::Node::Stats::*field) {
  std::uint64_t total = 0;
  for (const auto& n : net.nodes) total += n->stats().*field;
  return total;
}

// ------------------------------------------------------------ RTT timers

TEST(Adaptive, KeepalivePingsFeedPerPeerEstimator) {
  // A deliberately quiet overlay: no far links, slow stabilization.  In
  // a chatty mesh the routed traffic itself proves liveness and probes
  // never fire; only an idle connection exercises the ping path — and
  // the bootstrap node, which never links actively, gets its very first
  // RTT samples from those pongs.
  p2p::NodeConfig base;
  base.far_target = 0;
  base.stabilize_period = 2 * kMinute;
  // Probe threshold below the 5 s joining-CTM cadence, so even pairs
  // kept warm by an unsettled neighbor's announcements go idle.
  base.ping_interval = 3 * kSecond;
  testing::PublicOverlay net(4, /*seed=*/31, base);
  net.start_all();
  net.sim.run_until(6 * kMinute);
  for (const auto& n : net.nodes) {
    // Ring formed (routable() itself can be unachievable on tiny rings
    // when both true neighbors land in one ring half).
    ASSERT_GE(n->connections().size(), 2u);
    EXPECT_GT(n->stats().pings_sent, 0u) << n->address().brief();
    EXPECT_GT(n->stats().rtt_samples, 0u) << n->address().brief();
    bool any_srtt = false;
    n->connections().for_each([&](const p2p::Connection& c) {
      if (n->srtt_of(c.addr) > 0) any_srtt = true;
    });
    EXPECT_TRUE(any_srtt) << n->address().brief();
  }
}

/// Satellite regression: the per-peer ping bookkeeping must be bounded
/// by the connection table — entries for answered probes and for dropped
/// peers are erased, never accumulated (the old `ping_outstanding_` map
/// leaked an entry per peer that ever went idle).
TEST(Adaptive, PingStateMapStaysBoundedThroughChurn) {
  testing::PublicOverlay net(5, /*seed=*/17);
  net.start_all();
  net.sim.run_until(3 * kMinute);

  for (int cycle = 0; cycle < 2; ++cycle) {
    net.nodes[4]->stop();
    net.sim.run_for(2 * kMinute);  // peers detect and drop
    net.nodes[4]->restart();
    net.sim.run_for(kMinute);
  }
  p2p::Address fourth = net.nodes[4]->address();
  for (const auto& n : net.nodes) {
    if (!n->running()) continue;
    EXPECT_LE(n->ping_state_count(), n->connections().size())
        << n->address().brief();
  }
  // And specifically: nobody retains probe state for a peer they
  // dropped while it was down.
  net.nodes[4]->stop();
  net.sim.run_for(2 * kMinute);
  for (const auto& n : net.nodes) {
    if (!n->running()) continue;
    EXPECT_FALSE(n->connections().contains(fourth));
    EXPECT_LE(n->ping_state_count(), n->connections().size());
  }
}

/// Measures how long the fleet takes to fully forget an abruptly killed
/// node; the adaptive run must beat the fixed-timer run.  The latencies
/// feed the EXPERIMENTS.md repair-latency table.
SimDuration detection_latency(bool adaptive) {
  p2p::NodeConfig base;
  base.adaptive_timers = adaptive;
  testing::PublicOverlay net(5, /*seed=*/9, base);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  p2p::Address dead = net.nodes[4]->address();
  SimTime t0 = net.sim.now();
  net.nodes[4]->stop();
  while (net.sim.now() - t0 < 10 * kMinute) {
    net.sim.run_for(kSecond);
    bool anyone = false;
    for (int i = 0; i < 4; ++i) {
      if (net.nodes[static_cast<std::size_t>(i)]->connections().contains(
              dead)) {
        anyone = true;
      }
    }
    if (!anyone) {
      // Every loss must be accounted for in the per-cause breakdown.
      for (int i = 0; i < 4; ++i) {
        const auto& st = net.nodes[static_cast<std::size_t>(i)]->stats();
        std::uint64_t by_cause = 0;
        for (std::uint64_t v : st.lost_by_cause) by_cause += v;
        EXPECT_EQ(by_cause, st.connections_lost);
      }
      return net.sim.now() - t0;
    }
  }
  return 10 * kMinute;
}

TEST(Adaptive, DetectsDeadPeerFasterThanFixedTimers) {
  SimDuration adaptive = detection_latency(true);
  SimDuration fixed = detection_latency(false);
  RecordProperty("adaptive_detect_s", static_cast<int>(to_seconds(adaptive)));
  RecordProperty("fixed_detect_s", static_cast<int>(to_seconds(fixed)));
  printf("detection latency: adaptive=%llds fixed=%llds\n",
         static_cast<long long>(to_seconds(adaptive)),
         static_cast<long long>(to_seconds(fixed)));
  EXPECT_GT(adaptive, 0);
  EXPECT_LT(adaptive, fixed);
}

// ------------------------------------------------------------ quarantine

TEST(Adaptive, RepeatedFlapsQuarantineThenForgive) {
  testing::PublicOverlay net(4, /*seed=*/13);
  net.start_all();
  net.sim.run_until(3 * kMinute);

  p2p::Address flappy = net.nodes[3]->address();
  // The base quarantine (15 s) can begin and lapse while we wait for
  // slower peers to notice a death, so sample it continuously.
  bool saw_active_quarantine = false;
  auto holders = [&] {
    int c = 0;
    for (int i = 0; i < 3; ++i) {
      const auto& n = *net.nodes[static_cast<std::size_t>(i)];
      if (n.connections().contains(flappy)) ++c;
      if (n.is_quarantined(flappy)) saw_active_quarantine = true;
    }
    return c;
  };
  auto run_until_holders = [&](int want_at_least, bool none) {
    for (int s = 0; s < 180; ++s) {
      if (none ? holders() == 0 : holders() >= want_at_least) return true;
      net.sim.run_for(kSecond);
    }
    return false;
  };

  // The first death ends a long-lived connection: not a flap.
  net.nodes[3]->stop();
  ASSERT_TRUE(run_until_holders(0, /*none=*/true));
  // Three short-lived episodes inside the flap window: reconnect, then
  // die again before the connection is old enough to prove itself.
  for (int cycle = 0; cycle < 3; ++cycle) {
    net.nodes[3]->restart();
    ASSERT_TRUE(run_until_holders(1, /*none=*/false)) << "cycle " << cycle;
    net.nodes[3]->stop();
    ASSERT_TRUE(run_until_holders(0, /*none=*/true)) << "cycle " << cycle;
  }

  std::uint64_t quarantines = 0;
  bool any_episode = false;
  for (int i = 0; i < 3; ++i) {
    const auto& n = *net.nodes[static_cast<std::size_t>(i)];
    quarantines += n.stats().quarantines;
    if (n.quarantine_until(flappy) > 0) any_episode = true;
  }
  EXPECT_GT(quarantines, 0u);
  EXPECT_TRUE(any_episode);
  EXPECT_TRUE(saw_active_quarantine);

  // Quarantine suppresses re-attempts but never bars the peer from
  // linking back in; once it lapses and the node behaves, it is
  // forgiven and rejoins.
  net.nodes[3]->restart();
  net.sim.run_for(4 * kMinute);
  EXPECT_GE(holders(), 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        net.nodes[static_cast<std::size_t>(i)]->is_quarantined(flappy));
  }
}

// ------------------------------------------------------------ CTM sweep

/// Satellite: pending Connect-To-Me requests are retried on the adaptive
/// timeout and swept once the budget is spent — the map stays bounded no
/// matter how lossy the WAN gets.
TEST(Adaptive, PendingCtmsRetriedAndSweptUnderStorm) {
  testing::ThreeSiteOverlay net(29);
  net.start_all();
  net.sim.run_until(30 * kSecond);

  net::FaultSpec storm;
  storm.kind = net::FaultKind::kStorm;
  storm.at = net.sim.now();
  storm.duration = 3 * kMinute;
  storm.rate = 0.35;
  storm.magnitude = 80 * kMillisecond;
  net.network.faults().inject(storm);
  net.sim.run_for(3 * kMinute + kSecond);

  // Lossy joining must have forced at least one CTM retransmission.
  EXPECT_GT(sum_stat(net, &p2p::Node::Stats::ctm_retries), 0u);

  // After the storm plus the maximum CTM timeout, the pending maps have
  // drained to (at most) whatever the steady-state overlords keep in
  // flight.
  net.sim.run_for(4 * kMinute);
  for (const auto& n : net.nodes) {
    EXPECT_LE(n->pending_ctm_count(), 4u) << n->address().brief();
  }
  auto report = net.oracle(0);
  EXPECT_TRUE(report.ok) << report.to_string();
}

// ------------------------------------------------------------ relays

/// Tentpole acceptance: a site-pair path goes dark, leaving ring
/// neighbors split across it mutually unreachable.  Relay tunnels
/// through a mutual neighbor must keep every node routable, and once
/// the path heals the periodic probes must upgrade every tunnel back to
/// a direct connection.
TEST(Adaptive, RelayBridgesUnlinkablePairThenUpgradesOnHeal) {
  testing::ThreeSiteOverlay net(11);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  for (p2p::Node* n : net.live()) EXPECT_TRUE(n->routable());

  net::FaultSpec flap;
  flap.kind = net::FaultKind::kLinkFlap;
  flap.at = net.sim.now();
  flap.duration = 4 * kMinute;
  flap.sites = {net.sites[0], net.sites[1]};
  net.network.faults().inject(flap);

  net.sim.run_for(3 * kMinute);  // detection + relay establishment
  EXPECT_GT(sum_stat(net, &p2p::Node::Stats::relays_established), 0u);
  EXPECT_GT(sum_stat(net, &p2p::Node::Stats::relay_forwarded), 0u);
  std::size_t tunnels = 0;
  for (const auto& n : net.nodes) {
    n->connections().for_each([&](const p2p::Connection& c) {
      if (c.is_relay()) ++tunnels;
    });
    EXPECT_TRUE(n->routable()) << n->address().brief();
  }
  EXPECT_GT(tunnels, 0u);
  // Mid-flap the full oracle must hold: relays count as near coverage,
  // greedy routing works through them, and every tunnel's agent is live
  // and able to forward.
  auto mid = net.oracle(0);
  EXPECT_TRUE(mid.ok) << mid.to_string();

  // Heal, then give the upgrade probes time to land.
  net.sim.run_for(kMinute + kSecond);  // flap ends
  net.sim.run_for(3 * kMinute);
  EXPECT_GT(sum_stat(net, &p2p::Node::Stats::relays_upgraded), 0u);
  for (const auto& n : net.nodes) {
    n->connections().for_each([&](const p2p::Connection& c) {
      EXPECT_FALSE(c.is_relay())
          << n->address().brief() << " still tunnels to " << c.addr.brief();
    });
  }
  auto report = net.oracle(0);
  EXPECT_TRUE(report.ok) << report.to_string();
}

// ----------------------------------------------------- cause breakdown

TEST(DisconnectCause, EnumDriftIsCaught) {
  constexpr auto kCount =
      static_cast<std::size_t>(p2p::DisconnectCause::kCount);
  std::set<std::string> names;
  for (std::size_t i = 0; i < kCount; ++i) {
    const char* s = to_string(static_cast<p2p::DisconnectCause>(i));
    ASSERT_NE(s, nullptr) << i;
    EXPECT_STRNE(s, "") << i;
    names.insert(s);
  }
  // Every cause has a distinct label (a new enumerator without a
  // to_string arm would collide or crash here).
  EXPECT_EQ(names.size(), kCount);
  p2p::Node::Stats stats;
  EXPECT_EQ(stats.lost_by_cause.size(), kCount);
}

/// Satellite (node-level): two nodes bootstrapping at each other under
/// 30% loss — simultaneous initiators — must converge to exactly one
/// connection per side, never zero, never a duplicate pair.
TEST(Adaptive, MutualBootstrapUnderLossConvergesToOneConnection) {
  sim::Simulator sim(41);
  net::Network network(sim);
  auto site = network.add_site("s");
  network.set_same_site(
      net::LinkModel{5 * kMillisecond, kMillisecond, 0.30});
  auto& ha = network.add_host(net::Ipv4Addr(128, 7, 0, 1),
                              net::Network::kInternet, site, {});
  auto& hb = network.add_host(net::Ipv4Addr(128, 7, 0, 2),
                              net::Network::kInternet, site, {});
  p2p::NodeConfig ca, cb;
  ca.port = cb.port = 17000;
  ca.bootstrap = {transport::Uri{transport::TransportKind::kUdp,
                                 net::Endpoint{hb.ip(), 17000}}};
  cb.bootstrap = {transport::Uri{transport::TransportKind::kUdp,
                                 net::Endpoint{ha.ip(), 17000}}};
  p2p::Node a(p2p::NodeDeps::sim(sim, network, ha), ca);
  p2p::Node b(p2p::NodeDeps::sim(sim, network, hb), cb);
  a.start();
  b.start();
  sim.run_for(5 * kMinute);

  ASSERT_EQ(a.connections().size(), 1u);
  ASSERT_EQ(b.connections().size(), 1u);
  EXPECT_TRUE(a.connections().contains(b.address()));
  EXPECT_TRUE(b.connections().contains(a.address()));
  EXPECT_FALSE(a.connections().find(b.address())->is_relay());
  EXPECT_FALSE(b.connections().find(a.address())->is_relay());
}

}  // namespace
}  // namespace wow
