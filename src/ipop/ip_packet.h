#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "net/addr.h"

namespace wow::ipop {

/// IP protocol numbers used inside the virtual network.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// A (simplified) IPv4 packet travelling over the virtual network.  This
/// is what the guest O/S hands the tap device and what IPOP tunnels over
/// the P2P overlay (§III-B).  Header fields are serialized big-endian.
struct IpPacket {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  IpProto proto = IpProto::kUdp;
  std::uint8_t ttl = 64;
  std::uint16_t id = 0;
  Bytes payload;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<IpPacket> parse(
      std::span<const std::uint8_t> data);
};

/// ICMP echo message (the only ICMP types the experiments need).
struct IcmpEcho {
  static constexpr std::uint8_t kEchoRequest = 8;
  static constexpr std::uint8_t kEchoReply = 0;

  std::uint8_t type = kEchoRequest;
  std::uint16_t ident = 0;
  std::uint16_t seq = 0;
  /// Send timestamp (simulated µs) echoed back so the sender can compute
  /// RTT — stands in for the payload timestamp `ping` uses.
  std::int64_t timestamp = 0;
  /// Extra padding bytes (ping -s).
  std::uint16_t padding = 0;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<IcmpEcho> parse(
      std::span<const std::uint8_t> data);
};

}  // namespace wow::ipop
