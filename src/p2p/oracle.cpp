#include "p2p/oracle.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "p2p/keepalive.h"

namespace wow::p2p {

namespace {

/// Keepalive detection bound: an idle peer is pinged after ping_interval
/// and dropped after kPingRetries unanswered pings, with the sweep
/// running at half-interval granularity — so (2 + retries) intervals is
/// a safe "must have noticed by now" grace.
[[nodiscard]] SimDuration dead_grace(const Node& node) {
  return node.node_config().ping_interval * (2 + kPingRetries);
}

/// 2^159, the boundary routable() uses between a node's clockwise and
/// counter-clockwise sides.
[[nodiscard]] RingId ring_half() {
  std::array<std::uint32_t, RingId::kLimbs> limbs{};
  limbs[RingId::kLimbs - 1] = 0x80000000u;
  return RingId{limbs};
}

/// Component label per live node (union-find over the near-pointer
/// graph restricted to live addresses) — shared by ring_census() and
/// the "ring_census" invariant, which also wants representatives.
[[nodiscard]] std::vector<std::size_t> ring_components(
    const std::vector<Node*>& live) {
  std::map<Address, std::size_t> index;
  for (std::size_t i = 0; i < live.size(); ++i) {
    index[live[i]->address()] = i;
  }
  std::vector<std::size_t> parent(live.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[a] = b;
  };
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Connection* succ = live[i]->connections().right_neighbor();
    if (succ != nullptr) {
      auto it = index.find(succ->addr);
      if (it != index.end()) unite(i, it->second);
    }
    const Connection* pred = live[i]->connections().left_neighbor();
    if (pred != nullptr) {
      auto it = index.find(pred->addr);
      if (it != index.end()) unite(i, it->second);
    }
  }
  std::vector<std::size_t> roots(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) roots[i] = find(i);
  return roots;
}

[[nodiscard]] OracleReport violation(std::string invariant,
                                     std::string detail, SimTime now,
                                     std::uint64_t seed,
                                     std::vector<std::string> implicated) {
  OracleReport r;
  r.ok = false;
  r.invariant = std::move(invariant);
  r.detail = std::move(detail);
  r.at = now;
  r.seed = seed;
  r.implicated = std::move(implicated);
  return r;
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

OracleReport Oracle::check(const std::vector<Node*>& live, SimTime now,
                           const Config& config) {
  OracleReport ok_report;
  ok_report.at = now;
  ok_report.seed = config.seed;
  if (live.empty()) return ok_report;

  // God's-eye ring: live addresses in ring order, with a lookup map.
  std::map<Address, Node*> by_addr;
  for (Node* n : live) by_addr[n->address()] = n;
  std::vector<Address> ring;
  ring.reserve(by_addr.size());
  for (const auto& [addr, node] : by_addr) ring.push_back(addr);
  auto ring_index = [&](const Address& a) {
    return static_cast<std::size_t>(
        std::lower_bound(ring.begin(), ring.end(), a) - ring.begin());
  };

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

  // 1. Every live node is routable — where routability is achievable.
  // routable() wants a structured-near link in each ring half, which no
  // repair can provide when every other live address sits in one half
  // (small or address-clustered rings); invariant 2 still pins those
  // nodes to their true successor/predecessor.
  RingId half = ring_half();
  for (Node* n : live) {
    std::size_t i = ring_index(n->address());
    const Address& succ = ring[(i + 1) % ring.size()];
    const Address& pred = ring[(i + ring.size() - 1) % ring.size()];
    bool achievable =
        ring.size() >= 3 &&
        n->address().clockwise_distance(succ) < half &&
        !(n->address().clockwise_distance(pred) < half);
    if (achievable && !n->routable()) {
      return violation("routable",
                       "node " + n->address().brief() +
                           " is not routable (missing structured-near "
                           "links on at least one side)",
                       now, config.seed,
                       {n->address().brief(), succ.brief(), pred.brief()});
    }
  }

  // 1b. One ring, not several.  Invariant 2 also catches a split (some
  // node's in-fragment successor cannot be the true global successor),
  // but diagnosing "two independently-formed rings" from one bad
  // pointer is miserable — count the components explicitly and report
  // the split as what it is, with a representative per fragment.
  if (ring.size() >= 2) {
    std::vector<std::size_t> roots = ring_components(live);
    std::map<std::size_t, std::size_t> sizes;
    for (std::size_t r : roots) ++sizes[r];
    if (sizes.size() > 1) {
      std::vector<std::string> reps;
      std::string detail = std::to_string(sizes.size()) +
                           " ring components (sizes";
      for (const auto& [root, count] : sizes) {
        detail.append(" ").append(std::to_string(count));
        if (reps.size() < 4) reps.push_back(live[root]->address().brief());
      }
      detail += ") — the overlay has not merged into a single ring";
      return violation("ring_census", std::move(detail), now, config.seed,
                       std::move(reps));
    }
  }

  // 2. Near pointers agree with the true live ring.
  if (ring.size() >= 2) {
    for (Node* n : live) {
      std::size_t i = ring_index(n->address());
      const Address& true_succ = ring[(i + 1) % ring.size()];
      const Address& true_pred = ring[(i + ring.size() - 1) % ring.size()];

      const Connection* succ = n->connections().right_neighbor();
      if (succ == nullptr || !(succ->addr == true_succ)) {
        std::vector<std::string> who{n->address().brief(),
                                     true_succ.brief()};
        if (succ != nullptr) who.push_back(succ->addr.brief());
        return violation(
            "near_is_live_successor",
            "node " + n->address().brief() + " successor is " +
                (succ == nullptr ? std::string("absent") :
                                   succ->addr.brief()) +
                ", true live successor is " + true_succ.brief(),
            now, config.seed, std::move(who));
      }
      const Connection* pred = n->connections().left_neighbor();
      if (pred == nullptr || !(pred->addr == true_pred)) {
        std::vector<std::string> who{n->address().brief(),
                                     true_pred.brief()};
        if (pred != nullptr) who.push_back(pred->addr.brief());
        return violation(
            "near_is_live_predecessor",
            "node " + n->address().brief() + " predecessor is " +
                (pred == nullptr ? std::string("absent") :
                                   pred->addr.brief()),
            now, config.seed, std::move(who));
      }
    }
  }

  // 3. No stale entries past the keepalive grace.
  for (Node* n : live) {
    SimDuration grace = dead_grace(*n);
    OracleReport result = ok_report;
    n->connections().for_each([&](const Connection& c) {
      if (!result.ok) return;
      if (by_addr.count(c.addr) != 0) return;  // live peer: fine
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
      auto agent_it = by_addr.find(c.relay);
      bool agent_ok =
          agent_it != by_addr.end() &&
          [&] {
            const Connection* to_peer =
                agent_it->second->connections().find(c.addr);
            return to_peer != nullptr && !to_peer->is_relay();
          }();
      if (agent_ok) return;
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
  std::size_t pairs = ring.size() * ring.size();
  std::size_t stride = 1;
  if (config.max_route_pairs != 0 && pairs > config.max_route_pairs) {
    stride = (pairs + config.max_route_pairs - 1) / config.max_route_pairs;
  }
  for (std::size_t p = 0; p < pairs; p += stride) {
    Node* src = live[p / ring.size() % live.size()];
    const Address& dst = ring[p % ring.size()];
    Node* cur = src;
    std::size_t hops = 0;
    while (true) {
      if (cur->address() == dst) break;  // owner reached
      const Connection* next = cur->connections().closest_to(dst);
      if (next == nullptr) {
        // cur believes it is the owner, but dst names a different live
        // node — greedy routing would misdeliver.
        return violation("greedy_termination",
                         "route " + src->address().brief() + " -> " +
                             dst.brief() + " terminated early at " +
                             cur->address().brief(),
                         now, config.seed,
                         {cur->address().brief(), dst.brief(),
                          src->address().brief()});
      }
      auto it = by_addr.find(next->addr);
      if (it == by_addr.end()) {
        return violation("route_into_dead",
                         "route " + src->address().brief() + " -> " +
                             dst.brief() + " steps from " +
                             cur->address().brief() + " to dead node " +
                             next->addr.brief(),
                         now, config.seed,
                         {cur->address().brief(), next->addr.brief()});
      }
      cur = it->second;
      if (++hops > ring.size()) {
        return violation("route_loop",
                         "route " + src->address().brief() + " -> " +
                             dst.brief() + " exceeded " +
                             std::to_string(ring.size()) + " hops",
                         now, config.seed,
                         {src->address().brief(), dst.brief(),
                          cur->address().brief()});
      }
    }
  }

  return ok_report;
}

std::size_t Oracle::ring_census(const std::vector<Node*>& live) {
  if (live.empty()) return 0;
  std::vector<std::size_t> roots = ring_components(live);
  std::sort(roots.begin(), roots.end());
  return static_cast<std::size_t>(
      std::unique(roots.begin(), roots.end()) - roots.begin());
}

}  // namespace wow::p2p
