#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "p2p/node.h"

namespace wow::p2p {

/// Verdict of one oracle sweep.  `ok` when every invariant holds;
/// otherwise the first violated invariant, with enough context to
/// reproduce (sim time + run seed) and to debug (the detail line).
struct OracleReport {
  bool ok = true;
  std::string invariant;  // e.g. "near_is_live_successor"
  std::string detail;     // who violated it and how
  SimTime at = 0;
  std::uint64_t seed = 0;
  /// Ring-address briefs of the nodes involved in the violation (the
  /// holder of the bad pointer, the peer it points at, ...).  The chaos
  /// post-mortem dumps exactly these nodes' flight recorders, so a
  /// 5000-node soak failure localizes to a handful of event rings.
  std::vector<std::string> implicated;

  /// One-line form for logs and test failure messages, e.g.
  ///   "oracle: VIOLATION near_is_live_successor at t=312.5s seed=7: ..."
  [[nodiscard]] std::string to_string() const;
};

/// Global structural-invariant checker for a set of live overlay nodes
/// (the "god's eye" view a real deployment lacks; in simulation we have
/// it, so we use it — in the spirit of Chord's ring-invariant analysis).
///
/// Invariants checked, in order (the first violation is reported):
///   0. phantom_identity — (only when Config::known_addresses is set)
///                        no live node's table references an identity
///                        outside the run's full roster; see Config.
///   1. routable        — every live node reports routable() (holds
///                        structured-near links on both ring sides),
///                        where the live address set makes that
///                        achievable: a node whose every live peer sits
///                        in one ring half can never cover both sides,
///                        and is held to invariant 2 instead.
///   1b. ring_census    — the live near-pointer graph forms ONE
///                        connected ring component; two or more means
///                        independently-formed rings that have not
///                        merged (see ring_census()).
///   2. near_is_live_successor / near_is_live_predecessor — each node's
///                        ring successor/predecessor in its connection
///                        table is the true nearest LIVE node on that
///                        side.  Catches both ring gaps (pointing past a
///                        live node) and stale pointers (at a dead one).
///   3. stale_connection — no table entry references a dead node beyond
///                        the keepalive grace period (per-node:
///                        ping_interval * (2 + kPingRetries); within the
///                        grace the failure detector is still allowed to
///                        be catching up).
///   4. greedy_termination — greedy routing (closest_to walk over the
///                        real tables) from every live node to every
///                        live address reaches exactly the owner, within
///                        a live-count hop bound ("route_loop"), never
///                        stepping to a dead node ("route_into_dead").
///
/// The oracle is a pure observer: it reads connection tables and draws
/// nothing from the RNG, so calling it cannot perturb a deterministic
/// run.  Cost is O(n^2) table lookups for the routing sweep — fine for
/// the soak harness's double-digit overlays.  Invariants 1 to 2 alone
/// (check_ring) cost O(n log n), cheap enough to poll.
class Oracle {
 public:
  /// The god's-eye ring: the live nodes in address order.  Each entry
  /// keeps its node's address beside it, so sorting and lookups compare
  /// contiguous keys instead of chasing node pointers.
  class Ring {
   public:
    explicit Ring(const std::vector<Node*>& live);
    [[nodiscard]] std::size_t size() const { return order_.size(); }
    /// The i-th live node in ring order, wrapping around.
    [[nodiscard]] Node* at(std::size_t i) const {
      return order_[i % order_.size()].second;
    }
    /// Ring position of the live node at `addr`, or size() if none.
    [[nodiscard]] std::size_t position(const Address& addr) const;
    /// The live node at `addr`, or nullptr.
    [[nodiscard]] Node* find(const Address& addr) const {
      std::size_t i = position(addr);
      return i < order_.size() ? order_[i].second : nullptr;
    }

   private:
    std::vector<std::pair<Address, Node*>> order_;
  };

  /// A greedy routing walk: the hops taken and the node it stopped at.
  struct Walk {
    std::size_t hops = 0;
    const Node* last = nullptr;
  };
  /// Route from `src` towards `dst` by stepping closest_to over the real
  /// tables — the walk invariant 4 checks and the fleet's hop probe
  /// measures.  It stops at `dst`, at a node holding nothing closer, at
  /// a step to a node not in `ring`, or after `max_hops` hops.
  [[nodiscard]] static Walk greedy_walk(const Ring& ring, const Node& src,
                                        const Address& dst,
                                        std::size_t max_hops);

  struct Config {
    /// Echoed into reports so a failing check prints the reproducer.
    std::uint64_t seed = 0;
    /// Cap on (src, dst) pairs in the routing sweep, taken in a
    /// deterministic stride over the full pair set; 0 = exhaustive.
    std::size_t max_route_pairs = 0;
    /// Containment (DESIGN §16): the complete set of identities that
    /// exist in the run — every node ever created, honest or byzantine.
    /// When non-empty, invariant 0 (phantom_identity) asserts no live
    /// node's table holds a connection to an identity outside this set:
    /// such an identity was never instantiated and can only have been
    /// FORGED into the table.  Empty = check skipped (backward compat).
    std::vector<Address> known_addresses;
    /// Identities operated by adversaries; echoed into violation briefs
    /// so a containment failure names its likely authors.
    std::vector<Address> adversary_addresses;
  };

  /// Check all invariants over `live` (the nodes currently running) at
  /// sim time `now`.  Nodes stopped/crashed at `now` must not be in
  /// `live` — they are exactly what the stale checks test against.
  [[nodiscard]] static OracleReport check(const std::vector<Node*>& live,
                                          SimTime now, const Config& config);

  /// Invariants 1, 1b and 2 over `ring`: every node routable where
  /// achievable, one ring component, and both near pointers at the true
  /// live neighbours.  This is the legitimate ring state that check()
  /// starts from and a fleet's convergence loop waits for.
  [[nodiscard]] static OracleReport check_ring(const Ring& ring, SimTime now,
                                               std::uint64_t seed);

  /// Number of connected ring components over `live`: weak connectivity
  /// of the successor/predecessor pointer graph restricted to live
  /// addresses (a node whose near pointers all reference dead or absent
  /// peers is its own component).  A converged overlay measures exactly
  /// 1; two independently-formed rings measure 2 until a bridge merges
  /// them.  This is both the measurement behind the "ring_census"
  /// invariant in check() and the convergence signal the flash-crowd
  /// and ring-merge suites poll.
  [[nodiscard]] static std::size_t ring_census(const std::vector<Node*>& live);
};

}  // namespace wow::p2p
