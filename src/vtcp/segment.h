#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "ipop/ip_packet.h"

namespace wow::vtcp {

/// TCP segment flags (subset).
enum TcpFlags : std::uint8_t {
  kSyn = 1,
  kAck = 2,
  kFin = 4,
  kRst = 8,
};

/// A TCP segment carried as the payload of a virtual-network IP packet.
/// Sequence numbers are 32-bit on the wire, as in real TCP; the stack
/// keeps 64-bit internal counters and the experiments stay far below
/// wrap-around.
struct Segment {
  /// Ports (2 each), seq, ack (4 each), flags (1), window (4), payload
  /// length (2).
  static constexpr std::size_t kHeaderBytes = 19;
  /// Room a segment's frame needs in front of its payload: this header,
  /// then IPOP's and the overlay's.
  static constexpr std::size_t kHeadroom =
      kHeaderBytes + ipop::IpPacket::kHeadroom;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint32_t window = 0;
  /// A view: into the frame this segment was parsed from, or into the
  /// sender's buffer.  It must not outlive that buffer.
  BytesView payload;

  [[nodiscard]] bool has(TcpFlags f) const { return (flags & f) != 0; }

  /// Write this header in front of `frame`, whose content is the payload
  /// (`payload` itself is not read).  A payload over the u16 length
  /// field's range is refused loudly: false, and the frame is untouched.
  [[nodiscard]] bool push_header(FrameBuf& frame) const;
  /// Header and payload as one new buffer; empty if push_header refuses.
  [[nodiscard]] Bytes serialize() const;
  /// Zero-copy parse: the returned segment's payload views `data`.
  [[nodiscard]] static std::optional<Segment> parse(BytesView data);
};

}  // namespace wow::vtcp
