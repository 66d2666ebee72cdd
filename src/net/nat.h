#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "net/addr.h"

namespace wow::net {

/// Classic NAT behavioural classes (RFC 3489 terminology).  The mapping
/// and filtering behaviour determines whether UDP hole punching between
/// two NATed peers succeeds — which is exactly what the paper's linking
/// protocol relies on (§IV-D).
enum class NatType {
  kFullCone,        // one mapping per internal endpoint; anyone may send in
  kRestrictedCone,  // inbound allowed only from IPs the host has sent to
  kPortRestricted,  // inbound allowed only from IP:port the host has sent to
  kSymmetric,       // separate mapping per destination; inbound only from it
};

[[nodiscard]] const char* to_string(NatType type);

/// State of a NAT/firewall box: address and port translation plus inbound
/// filtering.  Pure state machine — the Network drives it while routing a
/// datagram through the domain tree, so NatBox itself performs no I/O.
///
/// Hairpin translation (§V-B, [25]): whether a packet sourced inside the
/// private network and addressed to the NAT's own public mapping is
/// translated back inside.  The paper's UFL NAT lacks hairpin support,
/// which is what makes UFL-UFL shortcut setup take ~200 s.
class NatBox {
 public:
  struct Config {
    NatType type = NatType::kPortRestricted;
    bool hairpin = false;
    /// If non-empty, only these external UDP ports accept inbound traffic
    /// (the paper's ncgrid.org firewall had a single open port).
    std::set<std::uint16_t> open_external_ports;
    /// First external port handed out.
    std::uint16_t port_base = 20000;
  };

  NatBox(Ipv4Addr public_ip, Config config)
      : public_ip_(public_ip), config_(config) {}

  [[nodiscard]] Ipv4Addr public_ip() const { return public_ip_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Outbound translation: a packet from `internal_src` to `remote` is
  /// leaving the private network.  Creates or reuses a mapping and
  /// returns the public source endpoint.  Mappings never expire; only
  /// flush_mappings() forgets them.
  [[nodiscard]] Endpoint translate_outbound(const Endpoint& internal_src,
                                            const Endpoint& remote);

  /// Inbound translation: a packet from `remote` arrives at our
  /// `public_dst` endpoint.  Returns the internal destination if a
  /// mapping exists and the filtering rule admits the sender, otherwise
  /// nullopt (packet dropped).
  [[nodiscard]] std::optional<Endpoint> translate_inbound(
      const Endpoint& public_dst, const Endpoint& remote) const;

  /// Simulate the NAT rebooting or the ISP renumbering: all mappings are
  /// forgotten (the paper observed translation changes on the home
  /// broadband node, §V-E).
  void flush_mappings() { by_public_port_.clear(); by_internal_.clear(); }

 private:
  struct Mapping {
    Endpoint internal;
    /// Remote endpoints the internal host has sent to through this
    /// mapping (drives restricted/port-restricted filtering).
    std::set<Endpoint> sent_to;
    /// For symmetric NATs, the single remote this mapping is bound to.
    std::optional<Endpoint> bound_remote;
  };

  /// Key for the internal-side lookup: symmetric NATs key by
  /// (internal, remote), cone NATs by internal endpoint alone.
  using InternalKey = std::pair<Endpoint, Endpoint>;

  [[nodiscard]] InternalKey internal_key(const Endpoint& internal_src,
                                         const Endpoint& remote) const {
    if (config_.type == NatType::kSymmetric) return {internal_src, remote};
    return {internal_src, Endpoint{}};
  }

  [[nodiscard]] bool filter_admits(const Mapping& m,
                                   const Endpoint& remote) const;

  Ipv4Addr public_ip_;
  Config config_;
  std::uint16_t next_port_ = 0;
  std::map<std::uint16_t, Mapping> by_public_port_;
  std::map<InternalKey, std::uint16_t> by_internal_;
};

}  // namespace wow::net
