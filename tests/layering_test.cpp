// The layered protocol-service stack: the dispatch registries and the
// protocol services exercised in isolation behind their hooks, with a
// bare clock and no Node or network behind them.  That the whole Node
// runs over a backend other than the simulator is checked over real
// sockets by RealtimeBackend.NodePairLinksOverRealUdp
// (realtime_udp_test.cpp).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/trace.h"
#include "p2p/ctm_overlord.h"
#include "p2p/dispatch.h"
#include "p2p/keepalive.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace wow {
namespace {

// --- dispatch layer -----------------------------------------------------

TEST(HandlerRegistry, RejectsOutOfRangeDuplicateAndNull) {
  p2p::HandlerRegistry<int> reg(4);
  int total = 0;
  EXPECT_TRUE(reg.add(1, [&](int v) { total += v; }));
  EXPECT_FALSE(reg.add(1, [](int) {}));  // duplicate: wiring bug, refused
  EXPECT_FALSE(reg.add(4, [](int) {}));  // out of range
  EXPECT_FALSE(reg.add(2, nullptr));     // null handler
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains(1));
  EXPECT_FALSE(reg.contains(2));

  EXPECT_TRUE(reg.dispatch(1, 5));
  EXPECT_EQ(total, 5);
}

TEST(HandlerRegistry, UnregisteredKindReportsFalseWithoutCrashing) {
  p2p::HandlerRegistry<int> reg(4);
  EXPECT_FALSE(reg.dispatch(2, 1));    // in range, never registered
  EXPECT_FALSE(reg.dispatch(200, 1));  // far out of range

  EXPECT_TRUE(reg.add(2, [](int) {}));
  EXPECT_TRUE(reg.dispatch(2, 1));
  EXPECT_TRUE(reg.remove(2));
  EXPECT_FALSE(reg.remove(2));
  EXPECT_FALSE(reg.dispatch(2, 1));
  EXPECT_EQ(reg.size(), 0u);
}

// An unknown frame kind arriving over the wire is counted and dropped;
// the node keeps running (the announce table never crashes on garbage).
TEST(Dispatch, UnknownFrameKindIsCountedAndDropped) {
  testing::PublicOverlay net(2);
  net.start_all();
  net.sim.run_for(30 * kSecond);
  ASSERT_TRUE(net.nodes[1]->has_direct(net.nodes[0]->address()));

  std::uint64_t before = net.nodes[0]->stats().parse_rejects;
  net.nodes[1]->edges().send_to(net::Endpoint{net.hosts[0]->ip(), 17000},
                                Bytes{0x7e, 1, 2, 3});
  net.sim.run_for(kSecond);
  EXPECT_EQ(net.nodes[0]->stats().parse_rejects, before + 1);
  EXPECT_TRUE(net.nodes[0]->running());

  // Still a functioning overlay after the garbage frame.
  net.sim.run_for(kMinute);
  EXPECT_TRUE(net.nodes[0]->has_direct(net.nodes[1]->address()));
}

// --- KeepaliveManager in isolation --------------------------------------

// The keepalive service against a bare connection table and a bare
// simulator clock: no Node, no network.  The hooks record what the
// service asked its owner to do.
struct KeepaliveHarness {
  KeepaliveHarness() {
    config.ping_interval = 2 * kSecond;
    km = std::make_unique<p2p::KeepaliveManager>(
        sim, tracer, logger, config, table, stats, trace_node, log_component,
        p2p::KeepaliveManager::Hooks{
            [this](const p2p::Connection&, const p2p::LinkFrame& frame) {
              sent.push_back(frame);
            },
            [this](const p2p::Address& peer, p2p::DisconnectCause cause) {
              dropped.emplace_back(peer, cause);
              // What Node::drop_connection would do with the table.
              table.remove(peer);
              km->erase_ping_state(peer);
            },
            nullptr,  // record_flight
        });
  }

  void add_peer(std::uint64_t addr) {
    p2p::Connection c;
    c.addr = p2p::Address{addr};
    c.type = p2p::ConnectionType::kStructuredNear;
    c.remote = net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 17000};
    table.add(std::move(c));
  }

  sim::Simulator sim;
  Tracer tracer;
  Logger logger;
  p2p::NodeConfig config;
  p2p::ConnectionTable table{p2p::Address{100}};
  p2p::NodeStats stats;
  std::string trace_node = "n";
  std::string log_component = "test";
  std::vector<p2p::LinkFrame> sent;
  std::vector<std::pair<p2p::Address, p2p::DisconnectCause>> dropped;
  std::unique_ptr<p2p::KeepaliveManager> km;
};

TEST(KeepaliveIsolation, PingsIdleConnectionAndPongFeedsEstimator) {
  KeepaliveHarness h;
  h.add_peer(200);
  h.km->start(kSecond);

  // Sweeps at t=1s (not yet idle) and t=2s (idle == ping_interval):
  // exactly one probe by t=2.5s.
  h.sim.run_for(2 * kSecond + 500 * kMillisecond);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].type, p2p::LinkType::kPing);
  EXPECT_EQ(h.sent[0].sender, p2p::Address{100});
  EXPECT_EQ(h.stats.pings_sent, 1u);
  EXPECT_EQ(h.km->ping_state_count(), 1u);

  // The pong answers a sole un-retransmitted probe (Karn-clean), sent
  // at t=2s and answered at t=2.5s: a 500 ms sample closes the episode
  // and feeds both the connection and durable estimators.
  p2p::LinkFrame pong;
  pong.type = p2p::LinkType::kPong;
  pong.sender = p2p::Address{200};
  pong.con_type = h.sent[0].con_type;
  pong.token = h.sent[0].token;
  h.km->on_pong(pong);

  EXPECT_EQ(h.km->ping_state_count(), 0u);
  EXPECT_EQ(h.stats.rtt_samples, 1u);
  EXPECT_EQ(h.km->srtt_of(p2p::Address{200}), 500 * kMillisecond);
  EXPECT_EQ(h.table.find(p2p::Address{200})->srtt, 500 * kMillisecond);
  EXPECT_EQ(h.dropped.size(), 0u);
}

TEST(KeepaliveIsolation, UnansweredProbeBudgetDropsConnection) {
  KeepaliveHarness h;
  h.add_peer(200);
  h.km->start(kSecond);

  h.sim.run_for(10 * kSecond);
  ASSERT_EQ(h.dropped.size(), 1u);
  EXPECT_EQ(h.dropped[0].first, p2p::Address{200});
  EXPECT_EQ(h.dropped[0].second, p2p::DisconnectCause::kKeepaliveTimeout);
  EXPECT_EQ(h.stats.pings_sent,
            static_cast<std::uint64_t>(p2p::kPingRetries));
  // The episode died with the connection: no leak.
  EXPECT_EQ(h.km->ping_state_count(), 0u);
  EXPECT_TRUE(h.table.empty());
}

TEST(KeepaliveIsolation, RepeatedFlapsQuarantineThenLapse) {
  KeepaliveHarness h;
  p2p::Address peer{300};
  EXPECT_FALSE(h.km->is_quarantined(peer));

  // kFlapThreshold short-lived losses inside one window begin a
  // quarantine episode at the base duration.
  for (int i = 0; i < p2p::kFlapThreshold; ++i) {
    h.km->note_flap(peer, kSecond);
  }
  EXPECT_TRUE(h.km->is_quarantined(peer));
  EXPECT_EQ(h.km->quarantine_until(peer), h.sim.now() + p2p::kQuarantineBase);
  EXPECT_EQ(h.stats.quarantines, 1u);

  // The episode lapses once the clock passes quarantine_until.
  h.sim.run_for(p2p::kQuarantineBase + kSecond);
  EXPECT_FALSE(h.km->is_quarantined(peer));
}

// --- CtmOverlord in isolation -------------------------------------------

// The CTM service against a bare table: hooks capture the packets it
// routes and the link handshakes it requests.
struct CtmHarness {
  CtmHarness() {
    ctm = std::make_unique<p2p::CtmOverlord>(
        sim, rng, tracer, config, table, stats, trace_node,
        p2p::CtmOverlord::Hooks{
            [] { return true; },   // running
            [] { return false; },  // routable
            [this](p2p::RoutedPacket packet) {
              routed.push_back(std::move(packet));
            },
            [this](const p2p::Connection&, p2p::RoutedPacket packet) {
              forwarded.push_back(std::move(packet));
            },
            [this] { return std::vector<transport::Uri>{uri}; },
            [this](const p2p::Address& peer, p2p::ConnectionType,
                   const std::vector<transport::Uri>&) {
              links.push_back(peer);
            },
            [](const p2p::Address&) { return false; },  // is_quarantined
            [] {},                                      // update_routable
            [] {},                                      // count_parse_reject
            nullptr,                                    // record_flight
            nullptr,                                    // note_peer
        });
  }

  void add_peer(std::uint64_t addr) {
    p2p::Connection c;
    c.addr = p2p::Address{addr};
    c.type = p2p::ConnectionType::kStructuredNear;
    c.remote = net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 17000};
    table.add(std::move(c));
  }

  sim::Simulator sim;
  Rng rng{7};
  Tracer tracer;
  p2p::NodeConfig config;
  p2p::ConnectionTable table{p2p::Address{100}};
  p2p::NodeStats stats;
  std::string trace_node = "n";
  transport::Uri uri{transport::TransportKind::kUdp,
                     net::Endpoint{net::Ipv4Addr(10, 0, 0, 1), 17000}};
  std::vector<p2p::RoutedPacket> routed;
  std::vector<p2p::RoutedPacket> forwarded;
  std::vector<p2p::Address> links;
  std::unique_ptr<p2p::CtmOverlord> ctm;
};

TEST(CtmIsolation, InitiateEmitsOneNearestModeRequest) {
  CtmHarness h;

  // No connections: a CTM has no path out, so initiate is a no-op.
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  EXPECT_EQ(h.routed.size(), 0u);
  EXPECT_EQ(h.ctm->pending_count(), 0u);

  h.add_peer(200);
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  ASSERT_EQ(h.routed.size(), 1u);
  EXPECT_EQ(h.routed[0].type, p2p::RoutedType::kCtmRequest);
  EXPECT_EQ(h.routed[0].src, p2p::Address{100});
  EXPECT_EQ(h.routed[0].dst, p2p::Address{500});
  EXPECT_EQ(h.routed[0].mode, p2p::DeliveryMode::kNearest);
  EXPECT_EQ(h.ctm->pending_count(), 1u);
  EXPECT_EQ(h.stats.ctm_sent, 1u);
}

TEST(CtmIsolation, SweepRetriesThenExpiresUnansweredRequests) {
  CtmHarness h;
  h.add_peer(200);
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  ASSERT_EQ(h.ctm->pending_count(), 1u);

  // Each step advances past any possible timeout (kCtmRtoMax is the
  // ceiling): the retry budget drains, then the request expires.
  for (int i = 0; i < p2p::kCtmMaxRetries + 1; ++i) {
    h.sim.run_for(p2p::kCtmRtoMax + kSecond);
    h.ctm->sweep();
  }
  EXPECT_EQ(h.stats.ctm_retries,
            static_cast<std::uint64_t>(p2p::kCtmMaxRetries));
  EXPECT_EQ(h.stats.ctm_timeouts, 1u);
  EXPECT_EQ(h.ctm->pending_count(), 0u);
  // The original send plus every retry went through the route hook.
  EXPECT_EQ(h.routed.size(),
            static_cast<std::size_t>(1 + p2p::kCtmMaxRetries));
}

}  // namespace
}  // namespace wow
