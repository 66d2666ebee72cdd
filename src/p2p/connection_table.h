#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/time.h"
#include "net/addr.h"
#include "p2p/packet.h"

namespace wow::p2p {

/// An established overlay connection: peer address, the physical endpoint
/// the linking protocol found to work, and bookkeeping for keepalives.
struct Connection {
  // Members are ordered 4-aligned first, 8-aligned after, single byte
  // into the tail of the 4-aligned run: 136 bytes/connection instead of
  // the 144 a declaration-by-topic order pads out to.  At megascale the
  // table is the footprint, so the layout is part of the budget
  // (DESIGN §14).
  Address addr;
  /// For kRelay tunnels: the mutual neighbor frames are source-routed
  /// through; `remote` is then that agent's endpoint.  Zero = direct.
  Address relay;
  net::Endpoint remote;                 // chosen working endpoint
  /// Everything the peer advertised, stored inline (≤4 URIs, no heap —
  /// the megascale flyweight layout; wire lists stay std::vector).
  transport::UriList uris;
  ConnectionType type = ConnectionType::kLeaf;
  SimTime established = 0;
  SimTime last_heard = 0;
  /// Jacobson-style smoothed RTT estimator, fed Karn-filtered samples
  /// from keepalive ping round-trips and link handshakes.  0 = no
  /// sample yet.  Drives the keepalive probe RTO and seeds the linking
  /// RTO for re-link attempts.
  SimDuration srtt = 0;
  SimDuration rttvar = 0;

  [[nodiscard]] bool is_relay() const { return relay != Address{}; }

  /// Fold one clean round-trip sample into the estimator.
  void rtt_sample(SimDuration sample) {
    if (sample >= 0) rtt_update(srtt, rttvar, sample);
  }

  /// Retransmission timeout derived from the estimator, clamped to
  /// [min_rto, max_rto]; max_rto when no sample exists yet.
  [[nodiscard]] SimDuration rto(SimDuration min_rto,
                                SimDuration max_rto) const {
    if (srtt == 0) return max_rto;
    SimDuration t = srtt + 4 * rttvar;
    if (t < min_rto) return min_rto;
    if (t > max_rto) return max_rto;
    return t;
  }
};

/// The node's view of its overlay links, ordered on the ring.
///
/// All ring geometry questions the protocols ask — who is my successor /
/// predecessor, which connection is greedily closest to a destination,
/// how many structured-far links do I have — are answered here, so the
/// overlords and the router stay free of ring arithmetic.
///
/// Layout: one contiguous vector sorted by clockwise distance from
/// self_.  The steady state is ~2·near + k·far + shortcuts ≈ a dozen
/// entries, where a node-per-entry tree costs an allocation plus ~40
/// bytes of color/pointer overhead per connection and a pointer chase
/// per step; the vector is one block.  Well-known bootstrap endpoints
/// hold hundreds to thousands of entries, so every lookup binary-searches
/// the ring order: find/remove/add locate an address by its clockwise
/// distance and one equality check, and the ring queries (closest_to,
/// successor_of, predecessor_of) then look at no more than two entries
/// on each side — O(log n).  The near-set queries (near_inside,
/// near_on_both_sides) bound their walk with one search, walk outward
/// from self and stop at their first answer, so they cost what they
/// count, not the table size.  The one per-datagram O(n) scan left is
/// credit_liveness, which matches on endpoint, not address.  Pointers
/// returned by find()/closest_to()/… are invalidated by add()/remove() —
/// every protocol service already re-finds after mutating (the
/// collect-then-mutate idiom in the sweeps).
class ConnectionTable {
 public:
  explicit ConnectionTable(Address self) : self_(self) {}

  [[nodiscard]] const Address& self() const { return self_; }

  /// Insert or refresh.  An existing connection to the same peer keeps
  /// its entry; the type is upgraded if the new role has higher retention
  /// priority (near > far > shortcut > leaf).  Returns true if the peer
  /// was new.
  bool add(Connection connection);

  bool remove(const Address& addr);
  void clear() { conns_.clear(); }

  [[nodiscard]] Connection* find(const Address& addr);
  [[nodiscard]] const Connection* find(const Address& addr) const;
  [[nodiscard]] bool contains(const Address& addr) const {
    return find(addr) != nullptr;
  }

  [[nodiscard]] std::size_t size() const { return conns_.size(); }
  [[nodiscard]] bool empty() const { return conns_.empty(); }
  [[nodiscard]] std::size_t count(ConnectionType type) const;

  /// Every per-type count in one pass (NodeInspector samples all five
  /// per node per window; five separate count() scans at 100k nodes was
  /// measurable).
  struct TypeCounts {
    std::size_t near = 0;
    std::size_t far = 0;
    std::size_t shortcut = 0;
    std::size_t leaf = 0;
    std::size_t relay = 0;
  };
  [[nodiscard]] TypeCounts count_by_type() const;

  /// Hot path (every received datagram): refresh last_heard on direct
  /// connections whose chosen endpoint is `from`.  Relay tunnels are
  /// excluded — their `remote` is the AGENT's endpoint, so the agent's
  /// own traffic would falsely credit the tunneled peer; a relay
  /// connection is only credited when an inner frame arrives through
  /// the tunnel (RelayAgent::handle_frame).
  void credit_liveness(const net::Endpoint& from, SimTime now) {
    for (Connection& c : conns_) {
      if (c.remote == from && !c.is_relay()) c.last_heard = now;
    }
  }

  /// Greedy routing decision: the connection strictly closer to `dst`
  /// than we are, minimizing ring distance; nullptr when the local node
  /// is itself closest (packet is delivered here).  `exclude` (if
  /// non-null) names a peer that must not be chosen — routing never
  /// hands a packet back to its own source.
  [[nodiscard]] const Connection* closest_to(
      const Address& dst, const Address* exclude = nullptr) const;

  /// Connected peer with minimal clockwise distance from ring position
  /// `pos` (excluding a peer at `pos` itself and the optional
  /// `exclude`): the first node "after" that position.  Used to hand a
  /// nearest-delivery packet across a ring gap.
  [[nodiscard]] const Connection* successor_of(
      const Address& pos, const Address* exclude = nullptr) const;
  /// Counter-clockwise counterpart of successor_of.
  [[nodiscard]] const Connection* predecessor_of(
      const Address& pos, const Address* exclude = nullptr) const;

  /// Successor: connected peer with minimal clockwise distance from us.
  [[nodiscard]] const Connection* right_neighbor() const;
  /// Predecessor: connected peer with minimal counter-clockwise distance.
  [[nodiscard]] const Connection* left_neighbor() const;
  /// `n` nearest connected peers clockwise of self, nearest first.
  [[nodiscard]] std::vector<const Connection*> right_neighbors(
      std::size_t n) const;

  /// Structured-near connections strictly between self and `peer` on
  /// peer's side of the ring (clockwise when peer is less than half a
  /// ring clockwise of self, counter-clockwise otherwise), counted up to
  /// `limit`: the walk starts next to self and stops at peer's position
  /// or at the limit-th near link.
  [[nodiscard]] std::size_t near_inside(const Address& peer,
                                        std::size_t limit) const;
  /// True when a structured-near or relay connection lies on each half
  /// of the ring: one less than half a ring clockwise of self, one at
  /// least half a ring.  Walks in from both ends of the ring order and
  /// stops at the first such link on each half.
  [[nodiscard]] bool near_on_both_sides() const;

  /// The `i`-th connection in ring order (clockwise from self);
  /// `i < size()`.
  [[nodiscard]] const Connection& nth(std::size_t i) const {
    return conns_[i];
  }

  /// Visit every connection in ring order (clockwise from self).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Connection& c : conns_) fn(c);
  }

  /// Live protocol-state bytes: held connections only (the §14 1 KB
  /// budget metric; allocator slack shows up in memory_bytes).
  [[nodiscard]] std::size_t state_bytes() const {
    return conns_.size() * sizeof(Connection);
  }
  /// Estimated object + heap bytes (bytes/node accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + conns_.capacity() * sizeof(Connection);
  }

 private:
  [[nodiscard]] static int retention_priority(ConnectionType t) {
    switch (t) {
      case ConnectionType::kStructuredNear: return 4;
      case ConnectionType::kStructuredFar: return 3;
      case ConnectionType::kShortcut: return 2;
      // A relay fills the near role while direct linking is impossible,
      // but any direct role upgrade must win so the periodic probes can
      // replace the tunnel in place.
      case ConnectionType::kRelay: return 1;
      case ConnectionType::kLeaf: return 0;
    }
    return 0;
  }

  /// Index of the first entry whose clockwise distance from self_ is
  /// not below (lower_index) / above (upper_index) that of `pos`; size()
  /// if none.
  [[nodiscard]] std::size_t lower_index(const Address& pos) const;
  [[nodiscard]] std::size_t upper_index(const Address& pos) const;
  /// Index of the entry for `addr`; size() if it is not held.
  [[nodiscard]] std::size_t index_of(const Address& addr) const;
  /// The first entry of at most two that is neither `skip` nor
  /// `exclude`, walking the ring from the search boundary `at`: clockwise
  /// from entry `at`, or counter-clockwise from the entry before it
  /// (both wrapping).  nullptr if the table is empty or both are skipped.
  [[nodiscard]] const Connection* first_allowed(std::size_t at, bool clockwise,
                                                const Address* skip,
                                                const Address* exclude) const;

  Address self_;
  /// Sorted by clockwise distance from self_ (recomputed on compare:
  /// a 160-bit subtract beats caching 20 more bytes per entry at these
  /// sizes), which makes successor / predecessor queries trivial and
  /// keeps iteration in ring order.
  std::vector<Connection> conns_;
};

}  // namespace wow::p2p
