#include "p2p/connection_table.h"

#include <algorithm>

namespace wow::p2p {

bool ConnectionTable::add(Connection connection) {
  if (Connection* existing = find(connection.addr)) {
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
  const std::size_t at = lower_index(self_.clockwise_distance(connection.addr));
  conns_.insert(conns_.begin() + static_cast<std::ptrdiff_t>(at),
                std::move(connection));
  return true;
}

bool ConnectionTable::remove(const Address& addr) {
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->addr == addr) {
      conns_.erase(it);
      return true;
    }
  }
  return false;
}

Connection* ConnectionTable::find(const Address& addr) {
  for (Connection& c : conns_) {
    if (c.addr == addr) return &c;
  }
  return nullptr;
}

const Connection* ConnectionTable::find(const Address& addr) const {
  for (const Connection& c : conns_) {
    if (c.addr == addr) return &c;
  }
  return nullptr;
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

std::size_t ConnectionTable::lower_index(const RingId& key) const {
  auto it = std::partition_point(
      conns_.begin(), conns_.end(), [this, &key](const Connection& c) {
        return self_.clockwise_distance(c.addr) < key;
      });
  return static_cast<std::size_t>(it - conns_.begin());
}

std::size_t ConnectionTable::upper_index(const RingId& key) const {
  auto it = std::partition_point(
      conns_.begin(), conns_.end(), [this, &key](const Connection& c) {
        return !(key < self_.clockwise_distance(c.addr));
      });
  return static_cast<std::size_t>(it - conns_.begin());
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
  const std::size_t at = lower_index(self_.clockwise_distance(dst));
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
  return first_allowed(upper_index(self_.clockwise_distance(pos)), true, &pos,
                       exclude);
}

const Connection* ConnectionTable::predecessor_of(
    const Address& pos, const Address* exclude) const {
  return first_allowed(lower_index(self_.clockwise_distance(pos)), false,
                       &pos, exclude);
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

std::vector<const Connection*> ConnectionTable::left_neighbors(
    std::size_t n) const {
  std::vector<const Connection*> out;
  for (std::size_t i = conns_.size(); i-- > 0 && out.size() < n;) {
    out.push_back(&conns_[i]);
  }
  return out;
}

void ConnectionTable::for_each(
    const std::function<void(const Connection&)>& fn) const {
  for (const Connection& c : conns_) fn(c);
}

std::vector<Address> ConnectionTable::addresses() const {
  std::vector<Address> out;
  out.reserve(conns_.size());
  for (const Connection& c : conns_) out.push_back(c.addr);
  return out;
}

}  // namespace wow::p2p
