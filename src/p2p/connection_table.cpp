#include "p2p/connection_table.h"

#include <algorithm>

#include "p2p/ring_math.h"

namespace wow::p2p {

bool ConnectionTable::add(Connection connection) {
  const std::size_t at = lower_index(connection.addr);
  if (at < conns_.size() && conns_[at].addr == connection.addr) {
    Connection* existing = &conns_[at];
    existing->last_heard = connection.last_heard;
    // A direct path always supersedes a relay tunnel (that transition IS
    // the relay→direct upgrade), but a relay refresh must never clobber
    // the endpoint of a working direct connection.
    if (!connection.is_relay() || existing->is_relay()) {
      existing->remote = connection.remote;
      existing->relay = connection.relay;
    }
    if (!connection.uris.empty()) existing->uris = connection.uris;
    if (retention_priority(connection.type) >
        retention_priority(existing->type)) {
      existing->type = connection.type;
    }
    return false;
  }
  conns_.insert(conns_.begin() + static_cast<std::ptrdiff_t>(at),
                std::move(connection));
  return true;
}

bool ConnectionTable::remove(const Address& addr) {
  const std::size_t i = index_of(addr);
  if (i == conns_.size()) return false;
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

Connection* ConnectionTable::find(const Address& addr) {
  const std::size_t i = index_of(addr);
  return i < conns_.size() ? &conns_[i] : nullptr;
}

const Connection* ConnectionTable::find(const Address& addr) const {
  const std::size_t i = index_of(addr);
  return i < conns_.size() ? &conns_[i] : nullptr;
}

std::size_t ConnectionTable::count(ConnectionType type) const {
  std::size_t n = 0;
  for (const Connection& c : conns_) {
    if (c.type == type) ++n;
  }
  return n;
}

ConnectionTable::TypeCounts ConnectionTable::count_by_type() const {
  TypeCounts counts;
  for (const Connection& c : conns_) {
    switch (c.type) {
      case ConnectionType::kStructuredNear: ++counts.near; break;
      case ConnectionType::kStructuredFar: ++counts.far; break;
      case ConnectionType::kShortcut: ++counts.shortcut; break;
      case ConnectionType::kLeaf: ++counts.leaf; break;
      case ConnectionType::kRelay: ++counts.relay; break;
    }
  }
  return counts;
}

// The three ring queries below share one idea.  The vector is sorted by
// clockwise distance from self_, so walking it from the binary-search
// position of a target (wrapping at the end) visits peers in order of
// clockwise distance from that target, and walking backwards visits them
// in counter-clockwise order.  Every address is distinct, so each walk's
// first peer not skipped is the unique nearest one on its side, and at
// most one skipped peer (`exclude`) stands in front of it: two steps per
// side always reach it.  The peer at `pos` itself is the last one either
// walk of successor_of/predecessor_of would reach.
//
// Sorting by clockwise distance from self_ puts the addresses at or after
// self_ first, in increasing order, then the ones below it (whose distance
// wraps past zero), also increasing.  The searches compare (wraps,
// address) pairs, which order entries the same way without a 160-bit
// subtract per probe.

std::size_t ConnectionTable::lower_index(const Address& pos) const {
  const bool pos_wraps = pos < self_;
  auto it = std::partition_point(
      conns_.begin(), conns_.end(), [&](const Connection& c) {
        const bool wraps = c.addr < self_;
        return wraps != pos_wraps ? pos_wraps : c.addr < pos;
      });
  return static_cast<std::size_t>(it - conns_.begin());
}

std::size_t ConnectionTable::upper_index(const Address& pos) const {
  const bool pos_wraps = pos < self_;
  auto it = std::partition_point(
      conns_.begin(), conns_.end(), [&](const Connection& c) {
        const bool wraps = c.addr < self_;
        return wraps != pos_wraps ? pos_wraps : !(pos < c.addr);
      });
  return static_cast<std::size_t>(it - conns_.begin());
}

std::size_t ConnectionTable::index_of(const Address& addr) const {
  // Clockwise distance from self_ is a bijection on addresses, so the
  // only entry that can hold `addr` is the first one not below it.
  const std::size_t at = lower_index(addr);
  return at < conns_.size() && conns_[at].addr == addr ? at : conns_.size();
}

const Connection* ConnectionTable::first_allowed(std::size_t at,
                                                 bool clockwise,
                                                 const Address* skip,
                                                 const Address* exclude) const {
  const std::size_t n = conns_.size();
  if (n == 0) return nullptr;
  std::size_t i = clockwise ? (at == n ? 0 : at) : (at == 0 ? n - 1 : at - 1);
  for (std::size_t step = 0; step < 2 && step < n; ++step) {
    const Connection& c = conns_[i];
    if ((skip == nullptr || c.addr != *skip) &&
        (exclude == nullptr || c.addr != *exclude)) {
      return &c;
    }
    if (clockwise) {
      i = i + 1 == n ? 0 : i + 1;
    } else {
      i = i == 0 ? n - 1 : i - 1;
    }
  }
  return nullptr;
}

const Connection* ConnectionTable::closest_to(const Address& dst,
                                              const Address* exclude) const {
  const std::size_t at = lower_index(dst);
  const Connection* cw = first_allowed(at, true, nullptr, exclude);
  if (cw == nullptr) return nullptr;  // empty, or every peer is excluded
  const Connection* ccw = first_allowed(at, false, nullptr, exclude);
  // Of two peers equally far from dst, the one earlier in the table wins.
  RingId cw_d = cw->addr.ring_distance(dst);
  RingId ccw_d = ccw->addr.ring_distance(dst);
  const bool take_ccw = ccw_d < cw_d || (ccw_d == cw_d && ccw < cw);
  const RingId& best = take_ccw ? ccw_d : cw_d;
  if (!(best < self_.ring_distance(dst))) return nullptr;
  return take_ccw ? ccw : cw;
}

const Connection* ConnectionTable::successor_of(const Address& pos,
                                                const Address* exclude) const {
  return first_allowed(upper_index(pos), true, &pos, exclude);
}

const Connection* ConnectionTable::predecessor_of(
    const Address& pos, const Address* exclude) const {
  return first_allowed(lower_index(pos), false, &pos, exclude);
}

const Connection* ConnectionTable::right_neighbor() const {
  return conns_.empty() ? nullptr : &conns_.front();
}

const Connection* ConnectionTable::left_neighbor() const {
  return conns_.empty() ? nullptr : &conns_.back();
}

std::vector<const Connection*> ConnectionTable::right_neighbors(
    std::size_t n) const {
  std::vector<const Connection*> out;
  for (std::size_t i = 0; i < conns_.size() && out.size() < n; ++i) {
    out.push_back(&conns_[i]);
  }
  return out;
}

// Both near-set queries walk the ring order outward from self: the
// entries clockwise of self up to some position are a prefix of the
// vector, and those counter-clockwise of self back to it are a suffix.
// Near links sit next to self, so the walks usually stop within a few
// entries.

std::size_t ConnectionTable::near_inside(const Address& peer,
                                         std::size_t limit) const {
  auto count_near = [limit](auto first, auto last) {
    std::size_t found = 0;
    for (; first != last && found < limit; ++first) {
      if (first->type == ConnectionType::kStructuredNear) ++found;
    }
    return found;
  };
  if (self_.clockwise_distance(peer) < ring_half()) {
    const auto end = static_cast<std::ptrdiff_t>(lower_index(peer));
    return count_near(conns_.begin(), conns_.begin() + end);
  }
  const auto end = static_cast<std::ptrdiff_t>(upper_index(peer));
  return count_near(conns_.rbegin(), conns_.rend() - end);
}

bool ConnectionTable::near_on_both_sides() const {
  // A relay tunnel holds the ring together while the pair cannot link
  // directly — it counts as near coverage (that is its entire point).
  auto holds_ring = [](const Connection& c) {
    return c.type == ConnectionType::kStructuredNear ||
           c.type == ConnectionType::kRelay;
  };
  // Entries before `mid` lie less than half a ring clockwise of self.
  const auto mid =
      static_cast<std::ptrdiff_t>(lower_index(self_ + ring_half()));
  return std::any_of(conns_.begin(), conns_.begin() + mid, holds_ring) &&
         std::any_of(conns_.rbegin(), conns_.rend() - mid, holds_ring);
}

}  // namespace wow::p2p
