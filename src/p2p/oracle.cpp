#include "p2p/oracle.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "p2p/keepalive.h"
#include "p2p/ring_math.h"

namespace wow::p2p {

namespace {

/// Keepalive detection bound: an idle peer is pinged after ping_interval
/// and dropped after kPingRetries unanswered pings, with the sweep
/// running at half-interval granularity — so (2 + retries) intervals is
/// a safe "must have noticed by now" grace.
[[nodiscard]] SimDuration dead_grace(const Node& node) {
  return node.node_config().ping_interval * (2 + kPingRetries);
}

/// Component root per ring position (union-find over the near-pointer
/// graph restricted to live addresses) — shared by ring_census() and
/// the "ring_census" invariant, which also wants representatives.
[[nodiscard]] std::vector<std::size_t> ring_components(
    const Oracle::Ring& ring) {
  std::vector<std::size_t> parent(ring.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::size_t a, const Connection* near) {
    if (near == nullptr) return;
    std::size_t b = ring.position(near->addr);
    if (b == ring.size()) return;  // points at a dead or absent peer
    a = find(a);
    b = find(b);
    if (a != b) parent[a] = b;
  };
  for (std::size_t i = 0; i < ring.size(); ++i) {
    unite(i, ring.at(i)->connections().right_neighbor());
    unite(i, ring.at(i)->connections().left_neighbor());
  }
  std::vector<std::size_t> roots(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) roots[i] = find(i);
  return roots;
}

[[nodiscard]] OracleReport violation(std::string invariant,
                                     std::string detail, SimTime now,
                                     std::uint64_t seed,
                                     std::vector<std::string> implicated) {
  return OracleReport{false, std::move(invariant), std::move(detail), now,
                      seed, std::move(implicated)};
}

}  // namespace

std::string OracleReport::to_string() const {
  std::ostringstream out;
  if (ok) {
    out << "oracle: OK at t=" << to_seconds(at) << "s seed=" << seed;
  } else {
    out << "oracle: VIOLATION " << invariant << " at t=" << to_seconds(at)
        << "s seed=" << seed << ": " << detail;
  }
  return out.str();
}

Oracle::Ring::Ring(const std::vector<Node*>& live) {
  order_.reserve(live.size());
  for (Node* n : live) order_.emplace_back(n->address(), n);
  std::sort(order_.begin(), order_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::size_t Oracle::Ring::position(const Address& addr) const {
  auto it = std::lower_bound(
      order_.begin(), order_.end(), addr,
      [](const auto& entry, const Address& a) { return entry.first < a; });
  if (it == order_.end() || it->first != addr) return order_.size();
  return static_cast<std::size_t>(it - order_.begin());
}

Oracle::Walk Oracle::greedy_walk(const Ring& ring, const Node& src,
                                 const Address& dst, std::size_t max_hops) {
  Walk w{0, &src};
  while (w.last->address() != dst && w.hops < max_hops) {
    const Connection* next = w.last->connections().closest_to(dst);
    const Node* step = next == nullptr ? nullptr : ring.find(next->addr);
    if (step == nullptr) break;
    w.last = step;
    ++w.hops;
  }
  return w;
}

OracleReport Oracle::check(const std::vector<Node*>& live, SimTime now,
                           const Config& config) {
  const OracleReport ok_report{true, {}, {}, now, config.seed, {}};
  if (live.empty()) return ok_report;
  const Ring ring(live);

  // 0. Containment: no phantom identities (DESIGN §16).  With the full
  // identity roster known, any table entry pointing OUTSIDE it is an
  // identity that never existed — it can only have entered the table
  // through a forged frame.  This is the byzantine suite's primary
  // containment invariant: defenses on, it must hold at any adversary
  // fraction; defenses off, the adversary fabric reproduces it.
  if (!config.known_addresses.empty()) {
    std::vector<Address> known = config.known_addresses;
    std::sort(known.begin(), known.end());
    for (Node* n : live) {
      OracleReport result = ok_report;
      n->connections().for_each([&](const Connection& c) {
        if (!result.ok) return;
        if (std::binary_search(known.begin(), known.end(), c.addr)) return;
        std::vector<std::string> who{n->address().brief(), c.addr.brief()};
        std::string detail = "node " + n->address().brief() + " holds " +
                             to_string(c.type) + " connection to phantom " +
                             c.addr.brief() +
                             " — no such identity exists (adversary-forged)";
        if (!config.adversary_addresses.empty()) {
          detail += "; adversaries:";
          std::size_t listed = 0;
          for (const Address& a : config.adversary_addresses) {
            if (listed++ >= 3) break;
            detail.append(" ").append(a.brief());
            who.push_back(a.brief());
          }
        }
        result = violation("phantom_identity", std::move(detail), now,
                           config.seed, std::move(who));
      });
      if (!result.ok) return result;
    }
  }

  // 1 to 2: the ring itself.
  OracleReport ring_report = check_ring(ring, now, config.seed);
  if (!ring_report.ok) return ring_report;

  // 3. No stale entries past the keepalive grace.
  for (Node* n : live) {
    SimDuration grace = dead_grace(*n);
    OracleReport result = ok_report;
    n->connections().for_each([&](const Connection& c) {
      if (!result.ok) return;
      if (ring.find(c.addr) != nullptr) return;  // live peer: fine
      if (now - c.last_heard <= grace) return;  // detector still in grace
      result = violation(
          "stale_connection",
          "node " + n->address().brief() + " still holds " +
              to_string(c.type) + " connection to dead node " +
              c.addr.brief() + " last heard " +
              std::to_string(to_seconds(now - c.last_heard)) + "s ago",
          now, config.seed, {n->address().brief(), c.addr.brief()});
    });
    if (!result.ok) return result;
  }

  // 3b. Relay tunnels rest on a live agent that can actually forward:
  // the agent node must be up and hold a direct connection to the
  // tunneled peer.  A tunnel whose agent died (or dropped the peer) is
  // given the keepalive grace — pings through the dead agent go
  // unanswered and the tunnel collapses within it (or immediately via
  // the kRelayDown cascade when the agent link itself drops).
  for (Node* n : live) {
    SimDuration grace = dead_grace(*n);
    OracleReport result = ok_report;
    n->connections().for_each([&](const Connection& c) {
      if (!result.ok || !c.is_relay()) return;
      if (now - c.last_heard <= grace) return;  // detector still in grace
      const Node* agent = ring.find(c.relay);
      const Connection* to_peer =
          agent == nullptr ? nullptr : agent->connections().find(c.addr);
      if (to_peer != nullptr && !to_peer->is_relay()) return;
      result = violation(
          "relay_without_agent",
          "node " + n->address().brief() + " holds relay connection to " +
              c.addr.brief() + " through agent " + c.relay.brief() +
              " which is dead or cannot forward, last heard " +
              std::to_string(to_seconds(now - c.last_heard)) + "s ago",
          now, config.seed,
          {n->address().brief(), c.addr.brief(), c.relay.brief()});
    });
    if (!result.ok) return result;
  }

  // 4. Greedy routing from every node terminates at the owner.
  const std::size_t count = ring.size();
  std::size_t pairs = count * count;
  std::size_t stride = 1;
  if (config.max_route_pairs != 0 && pairs > config.max_route_pairs) {
    stride = (pairs + config.max_route_pairs - 1) / config.max_route_pairs;
  }
  for (std::size_t p = 0; p < pairs; p += stride) {
    const Node* src = live[p / count % live.size()];
    const Address& dst = ring.at(p)->address();
    const Walk w = greedy_walk(ring, *src, dst, count);
    if (w.last->address() == dst) continue;
    const std::string route =
        "route " + src->address().brief() + " -> " + dst.brief();
    if (w.hops == count) {
      return violation("route_loop",
                       route + " took " + std::to_string(count) +
                           " hops without arriving",
                       now, config.seed,
                       {src->address().brief(), dst.brief(),
                        w.last->address().brief()});
    }
    const Connection* next = w.last->connections().closest_to(dst);
    if (next == nullptr) {
      // The walk believes it reached the owner, but dst names a
      // different live node — greedy routing would misdeliver.
      return violation("greedy_termination",
                       route + " terminated early at " +
                           w.last->address().brief(),
                       now, config.seed,
                       {w.last->address().brief(), dst.brief(),
                        src->address().brief()});
    }
    return violation("route_into_dead",
                     route + " steps from " + w.last->address().brief() +
                         " to dead node " + next->addr.brief(),
                     now, config.seed,
                     {w.last->address().brief(), next->addr.brief()});
  }

  return ok_report;
}

OracleReport Oracle::check_ring(const Ring& ring, SimTime now,
                                std::uint64_t seed) {
  const OracleReport ok_report{true, {}, {}, now, seed, {}};
  const std::size_t n = ring.size();
  if (n < 2) return ok_report;

  // 1. Every live node is routable — where routability is achievable.
  // routable() wants a structured-near link in each ring half, which no
  // repair can provide when every other live address sits in one half
  // (small or address-clustered rings); invariant 2 still pins those
  // nodes to their true successor/predecessor.
  const RingId half = ring_half();
  for (std::size_t i = 0; i < n; ++i) {
    const Node* node = ring.at(i);
    const Address& succ = ring.at(i + 1)->address();
    const Address& pred = ring.at(i + n - 1)->address();
    bool achievable = n >= 3 &&
                      node->address().clockwise_distance(succ) < half &&
                      !(node->address().clockwise_distance(pred) < half);
    if (achievable && !node->routable()) {
      return violation("routable",
                       "node " + node->address().brief() +
                           " is not routable (missing structured-near "
                           "links on at least one side)",
                       now, seed,
                       {node->address().brief(), succ.brief(), pred.brief()});
    }
  }

  // 1b. One ring, not several.  Invariant 2 also catches a split (some
  // node's in-fragment successor cannot be the true global successor),
  // but diagnosing "two independently-formed rings" from one bad
  // pointer is miserable — count the components explicitly and report
  // the split as what it is, with a representative per fragment.
  std::map<std::size_t, std::size_t> sizes;
  for (std::size_t root : ring_components(ring)) ++sizes[root];
  if (sizes.size() > 1) {
    std::vector<std::string> reps;
    std::string detail = std::to_string(sizes.size()) +
                         " ring components (sizes";
    for (const auto& [root, count] : sizes) {
      detail.append(" ").append(std::to_string(count));
      if (reps.size() < 4) reps.push_back(ring.at(root)->address().brief());
    }
    detail += ") — the overlay has not merged into a single ring";
    return violation("ring_census", std::move(detail), now, seed,
                     std::move(reps));
  }

  // 2. Near pointers agree with the true live ring.
  for (std::size_t i = 0; i < n; ++i) {
    const Node* node = ring.at(i);
    const Address& true_succ = ring.at(i + 1)->address();
    const Address& true_pred = ring.at(i + n - 1)->address();

    const Connection* succ = node->connections().right_neighbor();
    if (succ == nullptr || !(succ->addr == true_succ)) {
      std::vector<std::string> who{node->address().brief(),
                                   true_succ.brief()};
      if (succ != nullptr) who.push_back(succ->addr.brief());
      return violation(
          "near_is_live_successor",
          "node " + node->address().brief() + " successor is " +
              (succ == nullptr ? std::string("absent") : succ->addr.brief()) +
              ", true live successor is " + true_succ.brief(),
          now, seed, std::move(who));
    }
    const Connection* pred = node->connections().left_neighbor();
    if (pred == nullptr || !(pred->addr == true_pred)) {
      std::vector<std::string> who{node->address().brief(),
                                   true_pred.brief()};
      if (pred != nullptr) who.push_back(pred->addr.brief());
      return violation(
          "near_is_live_predecessor",
          "node " + node->address().brief() + " predecessor is " +
              (pred == nullptr ? std::string("absent") : pred->addr.brief()),
          now, seed, std::move(who));
    }
  }
  return ok_report;
}

std::size_t Oracle::ring_census(const std::vector<Node*>& live) {
  if (live.empty()) return 0;
  std::vector<std::size_t> roots = ring_components(Ring(live));
  std::sort(roots.begin(), roots.end());
  return static_cast<std::size_t>(
      std::unique(roots.begin(), roots.end()) - roots.begin());
}

}  // namespace wow::p2p
