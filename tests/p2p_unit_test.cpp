#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "net/network.h"
#include "net/sim_edge.h"
#include "p2p/connection_table.h"
#include "p2p/linking.h"
#include "p2p/ring_math.h"
#include "p2p/shortcut_overlord.h"
#include "sim/simulator.h"

namespace wow::p2p {
namespace {

Connection make_conn(std::uint64_t addr, ConnectionType type) {
  Connection c;
  c.addr = Address{addr};
  c.type = type;
  c.remote = net::Endpoint{net::Ipv4Addr(1, 1, 1, 1), 1};
  return c;
}

// ----------------------------------------------------------- ConnectionTable

TEST(ConnectionTable, AddRemoveFind) {
  ConnectionTable table(Address{100});
  EXPECT_TRUE(table.add(make_conn(200, ConnectionType::kLeaf)));
  EXPECT_FALSE(table.add(make_conn(200, ConnectionType::kLeaf)));  // dup
  EXPECT_TRUE(table.contains(Address{200}));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.remove(Address{200}));
  EXPECT_FALSE(table.remove(Address{200}));
  EXPECT_TRUE(table.empty());
}

TEST(ConnectionTable, TypeUpgradesByRetentionPriority) {
  ConnectionTable table(Address{100});
  table.add(make_conn(200, ConnectionType::kLeaf));
  table.add(make_conn(200, ConnectionType::kStructuredNear));
  EXPECT_EQ(table.find(Address{200})->type,
            ConnectionType::kStructuredNear);
  // Downgrade attempts are ignored.
  table.add(make_conn(200, ConnectionType::kShortcut));
  EXPECT_EQ(table.find(Address{200})->type,
            ConnectionType::kStructuredNear);
}

TEST(ConnectionTable, NeighborsInRingOrder) {
  ConnectionTable table(Address{1000});
  table.add(make_conn(1100, ConnectionType::kStructuredNear));  // right
  table.add(make_conn(900, ConnectionType::kStructuredNear));   // left
  table.add(make_conn(5000, ConnectionType::kStructuredFar));
  ASSERT_NE(table.right_neighbor(), nullptr);
  EXPECT_EQ(table.right_neighbor()->addr, Address{1100});
  ASSERT_NE(table.left_neighbor(), nullptr);
  EXPECT_EQ(table.left_neighbor()->addr, Address{900});

  auto right2 = table.right_neighbors(2);
  ASSERT_EQ(right2.size(), 2u);
  EXPECT_EQ(right2[0]->addr, Address{1100});
  EXPECT_EQ(right2[1]->addr, Address{5000});
}

TEST(ConnectionTable, ClosestToRequiresStrictProgress) {
  ConnectionTable table(Address{1000});
  table.add(make_conn(5000, ConnectionType::kStructuredFar));
  // We are closer to 1200 than the 5000 connection: deliver locally.
  EXPECT_EQ(table.closest_to(Address{1200}), nullptr);
  // The connection is closer to 4900.
  ASSERT_NE(table.closest_to(Address{4900}), nullptr);
  EXPECT_EQ(table.closest_to(Address{4900})->addr, Address{5000});
}

TEST(ConnectionTable, ClosestToHonorsExclusion) {
  ConnectionTable table(Address{1000});
  table.add(make_conn(4900, ConnectionType::kStructuredFar));
  Address excluded{4900};
  EXPECT_EQ(table.closest_to(Address{4900}, &excluded), nullptr);
}

TEST(ConnectionTable, SuccessorAndPredecessorOfArbitraryPosition) {
  ConnectionTable table(Address{0});
  table.add(make_conn(100, ConnectionType::kStructuredFar));
  table.add(make_conn(300, ConnectionType::kStructuredFar));
  table.add(make_conn(700, ConnectionType::kStructuredFar));

  EXPECT_EQ(table.successor_of(Address{200})->addr, Address{300});
  EXPECT_EQ(table.predecessor_of(Address{200})->addr, Address{100});
  // A peer exactly at the position is skipped.
  EXPECT_EQ(table.successor_of(Address{300})->addr, Address{700});
  // Wrap-around: successor of 800 is 100.
  EXPECT_EQ(table.successor_of(Address{800})->addr, Address{100});
  EXPECT_EQ(table.predecessor_of(Address{50})->addr, Address{700});
}

// Reference answers for the ring queries: linear scans over the table in
// index order, which is how ConnectionTable answered them before it
// binary-searched.  Ties on distance keep the lowest index.
std::vector<const Connection*> entries_of(const ConnectionTable& table) {
  std::vector<const Connection*> out;
  table.for_each([&out](const Connection& c) { out.push_back(&c); });
  return out;
}

const Connection* linear_closest_to(const ConnectionTable& table,
                                    const Address& dst,
                                    const Address* exclude) {
  RingId best = table.self().ring_distance(dst);
  const Connection* winner = nullptr;
  for (const Connection* c : entries_of(table)) {
    if (exclude != nullptr && c->addr == *exclude) continue;
    RingId d = c->addr.ring_distance(dst);
    if (d < best) {
      best = d;
      winner = c;
    }
  }
  return winner;
}

const Connection* linear_successor_of(const ConnectionTable& table,
                                      const Address& pos,
                                      const Address* exclude) {
  const Connection* best = nullptr;
  RingId best_d = RingId::max();
  for (const Connection* c : entries_of(table)) {
    if (c->addr == pos) continue;
    if (exclude != nullptr && c->addr == *exclude) continue;
    RingId d = pos.clockwise_distance(c->addr);
    if (best == nullptr || d < best_d) {
      best = c;
      best_d = d;
    }
  }
  return best;
}

const Connection* linear_predecessor_of(const ConnectionTable& table,
                                        const Address& pos,
                                        const Address* exclude) {
  const Connection* best = nullptr;
  RingId best_d = RingId::max();
  for (const Connection* c : entries_of(table)) {
    if (c->addr == pos) continue;
    if (exclude != nullptr && c->addr == *exclude) continue;
    RingId d = c->addr.clockwise_distance(pos);
    if (best == nullptr || d < best_d) {
      best = c;
      best_d = d;
    }
  }
  return best;
}

const Connection* linear_find(const ConnectionTable& table,
                              const Address& addr) {
  for (const Connection* c : entries_of(table)) {
    if (c->addr == addr) return c;
  }
  return nullptr;
}

std::vector<Address> addresses_of(const ConnectionTable& table) {
  std::vector<Address> out;
  for (const Connection* c : entries_of(table)) out.push_back(c->addr);
  return out;
}

// The near links CtmOverlord::wants_near counted between self and `peer`
// on peer's side of the ring, as it did with for_each before the table
// answered near_inside.
std::size_t linear_near_inside(const ConnectionTable& table,
                               const Address& peer) {
  const Address& self = table.self();
  RingId half = ring_half();
  RingId cw = self.clockwise_distance(peer);
  bool right = cw < half;
  RingId dist = right ? cw : peer.clockwise_distance(self);
  std::size_t closer = 0;
  table.for_each([&](const Connection& c) {
    if (c.type != ConnectionType::kStructuredNear) return;
    if (c.addr == peer) return;
    RingId c_cw = self.clockwise_distance(c.addr);
    if ((c_cw < half) != right) return;
    RingId c_dist = right ? c_cw : c.addr.clockwise_distance(self);
    if (c_dist < dist) ++closer;
  });
  return closer;
}

// Node::routable's for_each formulation before the table answered
// near_on_both_sides.
bool linear_near_on_both_sides(const ConnectionTable& table) {
  bool right_covered = false;
  bool left_covered = false;
  RingId half = ring_half();
  table.for_each([&](const Connection& c) {
    if (c.type != ConnectionType::kStructuredNear &&
        c.type != ConnectionType::kRelay) {
      return;
    }
    RingId cw = table.self().clockwise_distance(c.addr);
    if (cw < half) {
      right_covered = true;
    } else {
      left_covered = true;
    }
  });
  return right_covered && left_covered;
}

/// Every query, with and without an exclusion, must return the very
/// entry (same pointer) the linear reference returns.
void expect_queries_match(const ConnectionTable& table, const Address& q,
                          const Address& excluded, const char* what) {
  EXPECT_EQ(table.find(q), linear_find(table, q))
      << what << " find " << q.to_hex() << " size " << table.size();
  EXPECT_EQ(table.contains(q), linear_find(table, q) != nullptr)
      << what << " contains " << q.to_hex() << " size " << table.size();
  // near_per_side 0, 1 and 2: the count stops at the limit.
  const std::size_t near = linear_near_inside(table, q);
  for (std::size_t limit : {0, 1, 2}) {
    EXPECT_EQ(table.near_inside(q, limit), std::min(near, limit))
        << what << " near_inside " << q.to_hex() << " limit " << limit
        << " size " << table.size();
  }
  for (const Address* exclude : {static_cast<const Address*>(nullptr),
                                 &excluded}) {
    EXPECT_EQ(table.closest_to(q, exclude),
              linear_closest_to(table, q, exclude))
        << what << " closest_to " << q.to_hex() << " size " << table.size();
    EXPECT_EQ(table.successor_of(q, exclude),
              linear_successor_of(table, q, exclude))
        << what << " successor_of " << q.to_hex() << " size "
        << table.size();
    EXPECT_EQ(table.predecessor_of(q, exclude),
              linear_predecessor_of(table, q, exclude))
        << what << " predecessor_of " << q.to_hex() << " size "
        << table.size();
  }
}

// The binary-search table queries against the linear reference, on
// tables of 0..2000 entries.  Random 160-bit ids cover the routing case;
// small integer ids (offset from a base that is sometimes just below the
// wrap point) put several entries at equal distance from a target, on
// both sides, and sometimes put self itself in the table.  Connection
// types come from their own generator, so the ids are the same whatever
// the mix; one table in two holds few near and relay links, so the
// near-set walks also cross long runs of other types.  Each table is then
// drained by remove() in random order, checking every step, so the
// near-set queries also see every subset of a table's near links.
TEST(ConnectionTable, RingQueriesMatchLinearReference) {
  constexpr ConnectionType kTypes[] = {
      ConnectionType::kStructuredNear, ConnectionType::kRelay,
      ConnectionType::kStructuredFar, ConnectionType::kShortcut,
      ConnectionType::kLeaf};
  Rng rng(20261017);
  Rng types(7);
  int self_held = 0;
  int wrapped = 0;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 16; ++n) sizes.push_back(n);
  for (std::size_t n : {31, 64, 233, 1000, 2000}) sizes.push_back(n);
  for (std::size_t size : sizes) {
    for (bool small_ids : {false, true}) {
      const RingId base =
          rng.uniform(0, 1) == 0 ? RingId{} : RingId{} - RingId{20};
      auto draw = [&] {
        return small_ids ? base + RingId{static_cast<std::uint64_t>(
                                      rng.uniform(0, 3 * size + 40))}
                         : rng.ring_id();
      };
      const std::int64_t spread = types.uniform(0, 1) == 0 ? 4 : 400;
      auto draw_type = [&] {
        const std::int64_t t = types.uniform(0, spread);
        return t < 5 ? kTypes[t] : ConnectionType::kLeaf;
      };
      ConnectionTable table(draw());
      while (table.size() < size) {
        Connection c;
        c.addr = draw();
        c.type = draw_type();
        table.add(std::move(c));
      }
      // One table in two also holds near or relay peers at, just before
      // and just after half a ring from self, where a peer changes sides.
      if (types.uniform(0, 1) == 0) {
        const RingId half = ring_half();
        for (const RingId& at : {half - RingId{1}, half, half + RingId{1}}) {
          Connection c;
          c.addr = table.self() + at;
          c.type = kTypes[types.uniform(0, 1)];
          table.add(std::move(c));
        }
      }
      if (table.contains(table.self())) ++self_held;
      const std::vector<Address> held = addresses_of(table);
      if (small_ids && base != RingId{} &&
          std::any_of(held.begin(), held.end(),
                      [&](const Address& a) { return !(a < base); }) &&
          std::any_of(held.begin(), held.end(),
                      [](const Address& a) { return a < RingId{20}; })) {
        ++wrapped;  // ids on both sides of the wrap point
      }
      auto any_held = [&] {
        return held[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(held.size()) - 1))];
      };
      for (int query = 0; query < 200; ++query) {
        const Address excluded = held.empty() || query % 2 == 0 ? draw()
                                                                : any_held();
        expect_queries_match(table, draw(), excluded, "random");
        expect_queries_match(table, table.self(), excluded, "self");
        if (!held.empty()) {
          expect_queries_match(table, any_held(), excluded, "held");
        }
      }

      std::vector<Address> expect = held;
      while (true) {
        EXPECT_EQ(table.near_on_both_sides(),
                  linear_near_on_both_sides(table))
            << "near_on_both_sides size " << table.size();
        if (expect.empty()) break;
        const bool miss = rng.uniform(0, 3) == 0;
        const auto pick = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(expect.size()) - 1));
        const Address victim = miss ? draw() : expect[pick];
        auto it = std::find(expect.begin(), expect.end(), victim);
        const bool was_held = it != expect.end();
        if (was_held) expect.erase(it);
        EXPECT_EQ(table.remove(victim), was_held) << victim.to_hex();
        ASSERT_EQ(addresses_of(table), expect) << "after remove "
                                               << victim.to_hex();
      }
    }
  }
  EXPECT_GT(self_held, 0);
  EXPECT_GT(wrapped, 0);
}

// ---------------------------------------------------------- ShortcutOverlord

struct OverlordHarness {
  explicit OverlordHarness(ShortcutOverlord::Config config) {
    requested.clear();
    overlord = std::make_unique<ShortcutOverlord>(
        config,
        ShortcutOverlord::Hooks{
            [this](const Address& a) { return connected.count(a) != 0; },
            [this](const Address& a) { return linking.count(a) != 0; },
            [this] { return shortcut_count; },
            [this](const Address& a) { requested.push_back(a); },
            nullptr,  // is_quarantined
            nullptr,  // retry_cooldown_hint
        });
  }

  std::set<Address> connected;
  std::set<Address> linking;
  std::size_t shortcut_count = 0;
  std::vector<Address> requested;
  std::unique_ptr<ShortcutOverlord> overlord;
};

TEST(ShortcutOverlord, PaperRecurrenceTriggersAtThreshold) {
  ShortcutOverlord::Config cfg;
  cfg.threshold = 5.0;
  cfg.service_rate = 1.0;
  OverlordHarness h(cfg);
  Address peer{42};
  // 2 packets/s, leak 1/s -> net +1/s; threshold 5 crossed at ~5 s.
  SimTime t = 0;
  for (int i = 0; i < 20 && h.requested.empty(); ++i) {
    h.overlord->on_traffic(peer, t);
    h.overlord->on_traffic(peer, t);
    t += kSecond;
  }
  ASSERT_EQ(h.requested.size(), 1u);
  EXPECT_EQ(h.requested[0], peer);
  EXPECT_LE(t, 8 * kSecond);
}

TEST(ShortcutOverlord, ScoreLeaksWhileIdle) {
  ShortcutOverlord::Config cfg;
  cfg.service_rate = 1.0;
  cfg.threshold = 1e9;
  OverlordHarness h(cfg);
  Address peer{7};
  for (int i = 0; i < 10; ++i) h.overlord->on_traffic(peer, i * 100);
  double busy = h.overlord->score_of(peer, kSecond);
  // After 60 idle seconds the queue has fully drained.
  EXPECT_GT(busy, 5.0);
  EXPECT_DOUBLE_EQ(h.overlord->score_of(peer, 61 * kSecond), 0.0);
}

TEST(ShortcutOverlord, SuppressedWhenConnectedOrLinking) {
  ShortcutOverlord::Config cfg;
  cfg.threshold = 2.0;
  OverlordHarness h(cfg);
  Address peer{9};
  h.connected.insert(peer);
  for (int i = 0; i < 10; ++i) h.overlord->on_traffic(peer, i * kSecond);
  EXPECT_TRUE(h.requested.empty());

  h.connected.clear();
  h.linking.insert(peer);
  for (int i = 10; i < 20; ++i) h.overlord->on_traffic(peer, i * kSecond);
  EXPECT_TRUE(h.requested.empty());

  h.linking.clear();
  h.overlord->on_traffic(peer, 21 * kSecond);
  EXPECT_EQ(h.requested.size(), 1u);
}

TEST(ShortcutOverlord, RespectsMaxShortcutsAndCooldown) {
  ShortcutOverlord::Config cfg;
  cfg.threshold = 1.0;
  cfg.max_shortcuts = 1;
  OverlordHarness h(cfg);

  h.shortcut_count = 1;  // at the cap
  h.overlord->on_traffic(Address{1}, kSecond);
  h.overlord->on_traffic(Address{1}, 2 * kSecond);
  EXPECT_TRUE(h.requested.empty());

  h.shortcut_count = 0;
  h.overlord->on_traffic(Address{1}, 3 * kSecond);
  EXPECT_EQ(h.requested.size(), 1u);
  // Within the cooldown no second CTM is fired at the same peer.
  h.overlord->on_traffic(Address{1}, 4 * kSecond);
  EXPECT_EQ(h.requested.size(), 1u);
  h.overlord->on_traffic(Address{1},
                         3 * kSecond + kShortcutRetryCooldown + kSecond);
  EXPECT_EQ(h.requested.size(), 2u);
}

TEST(ShortcutOverlord, DisabledNeverRequests) {
  ShortcutOverlord::Config cfg;
  cfg.enabled = false;
  cfg.threshold = 1.0;
  OverlordHarness h(cfg);
  for (int i = 0; i < 50; ++i) h.overlord->on_traffic(Address{5}, i * kSecond);
  EXPECT_TRUE(h.requested.empty());
}

TEST(ShortcutOverlord, SweepExpiresIdleEntries) {
  ShortcutOverlord::Config cfg;
  cfg.threshold = 1e9;
  cfg.service_rate = 0.0;  // no leak: only the sweep can zero the score
  OverlordHarness h(cfg);
  h.overlord->on_traffic(Address{5}, 0);
  h.overlord->sweep(kShortcutEntryExpiry);
  EXPECT_DOUBLE_EQ(h.overlord->score_of(Address{5}, kShortcutEntryExpiry),
                   1.0);
  const SimTime later = kShortcutEntryExpiry + kMinute;
  h.overlord->sweep(later);
  EXPECT_DOUBLE_EQ(h.overlord->score_of(Address{5}, later), 0.0);
}

// -------------------------------------------------------------- LinkingEngine

/// What a dead URI costs an attempt before it fails over: the first
/// send plus kLinkMaxRetries retransmissions, the RTO doubling each
/// time from kLinkInitialRto (2.5 s * 63 = 157.5 s, footnote 2).
static_assert(kLinkBackoff == 2.0);
constexpr SimDuration kDeadUriCost =
    kLinkInitialRto * ((2 << kLinkMaxRetries) - 1);

/// Two public hosts + engines wired together through a real simulated
/// network, so retries, timeouts and races run for real.  The engines
/// talk through the EdgeFactory seam (net::SimEdgeFactory here), the
/// same one the node uses.
struct LinkPair {
  LinkPair() : sim(5), network(sim) {
    auto site = network.add_site("s");
    host_a = &network.add_host(net::Ipv4Addr(128, 0, 0, 1),
                               net::Network::kInternet, site, {});
    host_b = &network.add_host(net::Ipv4Addr(128, 0, 0, 2),
                               net::Network::kInternet, site, {});
    ta = std::make_unique<net::SimEdgeFactory>(network, *host_a);
    tb = std::make_unique<net::SimEdgeFactory>(network, *host_b);
    ta->bind(1700);
    tb->bind(1700);
    addr_a = Address{100};
    addr_b = Address{200};
    ea = make_engine(*ta, addr_a, established_a);
    eb = make_engine(*tb, addr_b, established_b);
    ta->set_receiver([this](const net::Endpoint& from, SharedBytes data) {
      auto f = LinkFrame::parse(data.view());
      if (f) ea->handle_frame(*f, from);
    });
    tb->set_receiver([this](const net::Endpoint& from, SharedBytes data) {
      auto f = LinkFrame::parse(data.view());
      if (f) eb->handle_frame(*f, from);
    });
  }

  std::unique_ptr<LinkingEngine> make_engine(
      p2p::EdgeFactory& edges, Address self,
      std::vector<Address>& established) {
    return std::make_unique<LinkingEngine>(
        sim, sim.rng(), sim.trace(), edges, self, /*public_uri_first=*/true,
        LinkingEngine::Callbacks{
            [&established](const Address& peer,
                           const std::vector<transport::Uri>&,
                           const net::Endpoint&, ConnectionType) {
              established.push_back(peer);
            },
            [](const Address&, ConnectionType) {},
            [](const transport::Uri&) {},
            [&established](const Address& peer) {
              return std::find(established.begin(), established.end(),
                               peer) != established.end();
            },
            nullptr,  // rto_hint
            nullptr,  // on_rtt_sample
            nullptr,  // is_quarantined
            nullptr,  // reply_rejected
        });
  }

  [[nodiscard]] transport::Uri uri_of(net::Host& h) const {
    return transport::Uri{transport::TransportKind::kUdp,
                          net::Endpoint{h.ip(), 1700}};
  }

  sim::Simulator sim;
  net::Network network;
  net::Host* host_a;
  net::Host* host_b;
  std::unique_ptr<net::SimEdgeFactory> ta, tb;
  Address addr_a, addr_b;
  std::vector<Address> established_a, established_b;
  std::unique_ptr<LinkingEngine> ea, eb;
};

TEST(LinkingEngine, DirectHandshakeSucceedsBothSides) {
  LinkPair pair;
  pair.ea->start(pair.addr_b, ConnectionType::kStructuredNear,
                 {pair.uri_of(*pair.host_b)});
  pair.sim.run_for(5 * kSecond);
  ASSERT_EQ(pair.established_a.size(), 1u);
  EXPECT_EQ(pair.established_a[0], pair.addr_b);
  ASSERT_EQ(pair.established_b.size(), 1u);
  EXPECT_EQ(pair.established_b[0], pair.addr_a);
  EXPECT_EQ(pair.ea->stats().established_active, 1u);
  EXPECT_EQ(pair.eb->stats().established_passive, 1u);
}

TEST(LinkingEngine, DeadUriFailsOverToNext) {
  LinkPair pair;
  // A dead PUBLIC address: stays first under public-first ordering, so
  // the failover schedule is what burns the time.
  transport::Uri dead{transport::TransportKind::kUdp,
                      net::Endpoint{net::Ipv4Addr(128, 9, 9, 9), 1}};
  pair.ea->start(pair.addr_b, ConnectionType::kShortcut,
                 {dead, pair.uri_of(*pair.host_b)});
  pair.sim.run_for(kDeadUriCost - kSecond);
  EXPECT_TRUE(pair.established_a.empty());
  pair.sim.run_for(10 * kSecond);
  ASSERT_EQ(pair.established_a.size(), 1u);
  EXPECT_EQ(pair.ea->stats().uri_failovers, 1u);
}

TEST(LinkingEngine, AllUrisDeadReportsFailure) {
  LinkPair pair;
  bool failed = false;
  // Rebuild engine a with a failure probe.
  LinkingEngine engine(
      pair.sim, pair.sim.rng(), pair.sim.trace(), *pair.ta, pair.addr_a,
      /*public_uri_first=*/true,
      LinkingEngine::Callbacks{
          [](const Address&, const std::vector<transport::Uri>&,
             const net::Endpoint&, ConnectionType) {},
          [&failed](const Address&, ConnectionType) { failed = true; },
          [](const transport::Uri&) {},
          [](const Address&) { return false; },
          nullptr,  // rto_hint
          nullptr,  // on_rtt_sample
          nullptr,  // is_quarantined
          nullptr,  // reply_rejected
      });
  transport::Uri dead{transport::TransportKind::kUdp,
                      net::Endpoint{net::Ipv4Addr(10, 9, 9, 9), 1}};
  engine.start(pair.addr_b, ConnectionType::kShortcut, {dead});
  pair.sim.run_for(kDeadUriCost + kSecond);
  EXPECT_TRUE(failed);
  EXPECT_FALSE(engine.attempting(pair.addr_b));
}

TEST(LinkingEngine, SimultaneousAttemptsConverge) {
  LinkPair pair;
  pair.ea->start(pair.addr_b, ConnectionType::kStructuredNear,
                 {pair.uri_of(*pair.host_b)});
  pair.eb->start(pair.addr_a, ConnectionType::kStructuredNear,
                 {pair.uri_of(*pair.host_a)});
  pair.sim.run_for(30 * kSecond);
  EXPECT_EQ(pair.established_a.size(), 1u);
  EXPECT_EQ(pair.established_b.size(), 1u);
}

TEST(LinkingEngine, PublicUriOrderedFirst) {
  LinkPair pair;
  // Give A a list with the private URI first; the engine must reorder
  // so the public URI is tried first (the paper's behaviour).
  transport::Uri priv{transport::TransportKind::kUdp,
                      net::Endpoint{net::Ipv4Addr(192, 168, 0, 9), 1}};
  pair.ea->start(pair.addr_b, ConnectionType::kShortcut,
                 {priv, pair.uri_of(*pair.host_b)});
  // If the public URI goes first the handshake completes immediately
  // (well inside the 157.5 s dead-URI timeout).
  pair.sim.run_for(kSecond);
  EXPECT_EQ(pair.established_a.size(), 1u);
}

// ------------------------------------------- RTT estimator + relay merges

TEST(Connection, RttEstimatorFollowsRfc6298) {
  Connection c;
  EXPECT_EQ(c.rto(100, 1000), 1000);  // no sample: max_rto
  c.rtt_sample(80);
  EXPECT_EQ(c.srtt, 80);
  EXPECT_EQ(c.rttvar, 40);
  // Second sample: rttvar = (3*40 + |80-120|)/4 = 40, srtt = (7*80+120)/8.
  c.rtt_sample(120);
  EXPECT_EQ(c.rttvar, 40);
  EXPECT_EQ(c.srtt, 85);
  // Negative samples (clock weirdness) are ignored.
  c.rtt_sample(-5);
  EXPECT_EQ(c.srtt, 85);
}

TEST(Connection, RtoClampsToBounds) {
  Connection c;
  c.rtt_sample(10);  // srtt 10, rttvar 5 -> raw rto 30
  EXPECT_EQ(c.rto(100, 1000), 100);   // clamped up
  EXPECT_EQ(c.rto(1, 20), 20);        // clamped down
  EXPECT_EQ(c.rto(1, 1000), 30);      // in range
}

TEST(ConnectionTable, RelayRefreshNeverClobbersDirectEndpoint) {
  ConnectionTable table(Address{100});
  table.add(make_conn(200, ConnectionType::kStructuredNear));

  Connection relay = make_conn(200, ConnectionType::kRelay);
  relay.remote = net::Endpoint{net::Ipv4Addr(9, 9, 9, 9), 9};  // agent
  relay.relay = Address{300};
  table.add(relay);

  const Connection* c = table.find(Address{200});
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->is_relay());
  EXPECT_EQ(c->remote, (net::Endpoint{net::Ipv4Addr(1, 1, 1, 1), 1}));
  EXPECT_EQ(c->type, ConnectionType::kStructuredNear);
}

TEST(ConnectionTable, DirectAddSupersedesRelayTunnel) {
  ConnectionTable table(Address{100});
  Connection relay = make_conn(200, ConnectionType::kRelay);
  relay.remote = net::Endpoint{net::Ipv4Addr(9, 9, 9, 9), 9};
  relay.relay = Address{300};
  table.add(relay);
  ASSERT_TRUE(table.find(Address{200})->is_relay());

  // The relay->direct upgrade: a direct near add replaces the tunnel.
  table.add(make_conn(200, ConnectionType::kStructuredNear));
  const Connection* c = table.find(Address{200});
  EXPECT_FALSE(c->is_relay());
  EXPECT_EQ(c->relay, Address{});
  EXPECT_EQ(c->remote, (net::Endpoint{net::Ipv4Addr(1, 1, 1, 1), 1}));
  EXPECT_EQ(c->type, ConnectionType::kStructuredNear);
}

TEST(ConnectionTable, EstimatorSurvivesRefresh) {
  ConnectionTable table(Address{100});
  table.add(make_conn(200, ConnectionType::kLeaf));
  table.find(Address{200})->rtt_sample(500);
  // A role upgrade (refresh through add) must not reset the estimator.
  table.add(make_conn(200, ConnectionType::kStructuredNear));
  EXPECT_EQ(table.find(Address{200})->srtt, 500);
}

TEST(ConnectionTable, RelayRanksAboveLeafBelowShortcut) {
  ConnectionTable table(Address{100});
  table.add(make_conn(200, ConnectionType::kLeaf));
  table.add(make_conn(200, ConnectionType::kRelay));
  EXPECT_EQ(table.find(Address{200})->type, ConnectionType::kRelay);
  table.add(make_conn(200, ConnectionType::kShortcut));
  EXPECT_EQ(table.find(Address{200})->type, ConnectionType::kShortcut);
}

TEST(LinkingEngine, SimultaneousInitiatorsUnderLossConverge) {
  LinkPair pair;
  // 30% loss on the only path: retransmissions and the race-break have
  // to grind through it, but both sides must still converge.
  pair.network.set_same_site(
      net::LinkModel{5 * kMillisecond, kMillisecond, 0.30});
  // Both sides re-initiate whenever their attempt dies, the way the
  // node's maintenance tick does.
  for (int tick = 0; tick < 24; ++tick) {
    if (pair.established_a.empty() && !pair.ea->attempting(pair.addr_b)) {
      pair.ea->start(pair.addr_b, ConnectionType::kStructuredNear,
                     {pair.uri_of(*pair.host_b)});
    }
    if (pair.established_b.empty() && !pair.eb->attempting(pair.addr_a)) {
      pair.eb->start(pair.addr_a, ConnectionType::kStructuredNear,
                     {pair.uri_of(*pair.host_a)});
    }
    pair.sim.run_for(5 * kSecond);
  }
  EXPECT_FALSE(pair.established_a.empty());
  EXPECT_FALSE(pair.established_b.empty());
  EXPECT_FALSE(pair.ea->attempting(pair.addr_b));
  EXPECT_FALSE(pair.eb->attempting(pair.addr_a));
}

TEST(LinkingEngine, MergesFreshUrisIntoActiveAttempt) {
  LinkPair pair;
  transport::Uri dead{transport::TransportKind::kUdp,
                      net::Endpoint{net::Ipv4Addr(10, 9, 9, 9), 1}};
  pair.ea->start(pair.addr_b, ConnectionType::kShortcut, {dead});
  pair.sim.run_for(100 * kMillisecond);
  ASSERT_TRUE(pair.ea->attempting(pair.addr_b));
  // Fresh knowledge arrives (e.g. from a CTM): a working public URI.
  // It must be promoted ahead of the dead private one.
  pair.ea->start(pair.addr_b, ConnectionType::kShortcut,
                 {pair.uri_of(*pair.host_b)});
  pair.sim.run_for(2 * kSecond);
  EXPECT_EQ(pair.established_a.size(), 1u);
}

}  // namespace
}  // namespace wow::p2p
