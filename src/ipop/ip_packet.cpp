#include "ipop/ip_packet.h"

namespace wow::ipop {

bool IpPacket::push_header(FrameBuf& frame) const {
  const std::size_t len = frame.size();
  if (!length_fits("IpPacket payload", len, ByteWriter::kMaxLenPrefixed)) {
    return false;
  }
  HeaderWriter w(frame.push(kHeaderBytes));
  w.u8(static_cast<std::uint8_t>(proto));
  w.u8(ttl);
  w.u16(id);
  w.u32(src.value());
  w.u32(dst.value());
  w.u16(static_cast<std::uint16_t>(len));
  return true;
}

Bytes IpPacket::serialize() const {
  FrameBuf frame(kHeaderBytes, payload);
  if (!push_header(frame)) return {};
  return std::move(frame).take();
}

std::optional<IpPacket> IpPacket::parse(BytesView data) {
  ByteReader r(data);
  IpPacket p;
  p.proto = static_cast<IpProto>(r.u8());
  p.ttl = r.u8();
  p.id = r.u16();
  p.src = net::Ipv4Addr{r.u32()};
  p.dst = net::Ipv4Addr{r.u32()};
  p.payload = r.bytes(r.u16());
  if (!r.ok() || (p.proto != IpProto::kIcmp && p.proto != IpProto::kTcp &&
                  p.proto != IpProto::kUdp)) {
    return std::nullopt;
  }
  return p;
}

Bytes IcmpEcho::serialize() const {
  ByteWriter w;
  w.reserve(1 + 1 + 2 + 2 + 8 + 2 + padding);
  w.u8(type);
  w.u8(0);  // code
  w.u16(ident);
  w.u16(seq);
  w.i64(timestamp);
  w.u16(padding);
  // Padding bytes themselves are represented, not materialized: the
  // wire size matters for the network model, the contents never do.
  for (std::uint16_t i = 0; i < padding; ++i) w.u8(0);
  return std::move(w).take();
}

std::optional<IcmpEcho> IcmpEcho::parse(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  IcmpEcho e;
  e.type = r.u8();
  (void)r.u8();  // code
  e.ident = r.u16();
  e.seq = r.u16();
  e.timestamp = r.i64();
  e.padding = r.u16();
  (void)r.bytes(e.padding);  // the padding must be there, whatever it holds
  if (!r.ok() || (e.type != kEchoRequest && e.type != kEchoReply)) {
    return std::nullopt;
  }
  return e;
}

}  // namespace wow::ipop
