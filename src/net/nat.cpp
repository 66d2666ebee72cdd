#include "net/nat.h"

namespace wow::net {

const char* to_string(NatType type) {
  switch (type) {
    case NatType::kFullCone: return "full-cone";
    case NatType::kRestrictedCone: return "restricted-cone";
    case NatType::kPortRestricted: return "port-restricted";
    case NatType::kSymmetric: return "symmetric";
  }
  return "?";
}

Endpoint NatBox::translate_outbound(const Endpoint& internal_src,
                                    const Endpoint& remote) {
  InternalKey key = internal_key(internal_src, remote);
  if (auto it = by_internal_.find(key); it != by_internal_.end()) {
    by_public_port_.at(it->second).sent_to.insert(remote);
    return Endpoint{public_ip_, it->second};
  }

  // Allocate the next free public port.
  std::uint16_t port = static_cast<std::uint16_t>(config_.port_base + next_port_);
  while (by_public_port_.count(port) != 0) {
    ++next_port_;
    port = static_cast<std::uint16_t>(config_.port_base + next_port_);
  }
  ++next_port_;

  Mapping m;
  m.internal = internal_src;
  m.sent_to.insert(remote);
  if (config_.type == NatType::kSymmetric) m.bound_remote = remote;
  by_public_port_.emplace(port, std::move(m));
  by_internal_.emplace(key, port);
  return Endpoint{public_ip_, port};
}

bool NatBox::filter_admits(const Mapping& m, const Endpoint& remote) const {
  switch (config_.type) {
    case NatType::kFullCone:
      return true;
    case NatType::kRestrictedCone:
      // Any port on an IP we've sent to.
      for (const Endpoint& e : m.sent_to) {
        if (e.ip == remote.ip) return true;
      }
      return false;
    case NatType::kPortRestricted:
      return m.sent_to.count(remote) != 0;
    case NatType::kSymmetric:
      return m.bound_remote.has_value() && *m.bound_remote == remote;
  }
  return false;
}

std::optional<Endpoint> NatBox::translate_inbound(const Endpoint& public_dst,
                                                  const Endpoint& remote) const {
  if (public_dst.ip != public_ip_) return std::nullopt;
  if (!config_.open_external_ports.empty() &&
      config_.open_external_ports.count(public_dst.port) == 0) {
    return std::nullopt;  // firewall: port closed
  }
  auto it = by_public_port_.find(public_dst.port);
  if (it == by_public_port_.end()) return std::nullopt;
  if (!filter_admits(it->second, remote)) return std::nullopt;
  return it->second.internal;
}

}  // namespace wow::net
