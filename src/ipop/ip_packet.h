#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "net/addr.h"
#include "p2p/packet.h"

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
  /// proto, ttl (1 each), id (2), src, dst (4 each), payload length (2).
  static constexpr std::size_t kHeaderBytes = 14;
  /// Room a tunnelled packet's frame needs in front of its payload: this
  /// header and the overlay's routed header.
  static constexpr std::size_t kHeadroom =
      kHeaderBytes + p2p::RoutedPacket::kHeaderBytes;

  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  IpProto proto = IpProto::kUdp;
  std::uint8_t ttl = 64;
  std::uint16_t id = 0;
  /// A view: into the frame this packet was parsed from, or into the
  /// sender's buffer.  It must not outlive that buffer.
  BytesView payload;

  /// Write this header in front of `frame`, whose content is the payload
  /// (`payload` itself is not read).  A payload over the u16 length
  /// field's range is refused loudly: false, and the frame is untouched.
  [[nodiscard]] bool push_header(FrameBuf& frame) const;
  /// Header and payload as one new buffer; empty if push_header refuses.
  [[nodiscard]] Bytes serialize() const;
  /// Zero-copy parse: the returned packet's payload views `data`.
  [[nodiscard]] static std::optional<IpPacket> parse(BytesView data);
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
