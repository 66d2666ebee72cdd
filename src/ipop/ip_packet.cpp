#include "ipop/ip_packet.h"

#include <cstdio>

namespace wow::ipop {

bool IpPacket::push_header(FrameBuf& frame) const {
  std::size_t len = frame.size();
  if (len > ByteWriter::kMaxLenPrefixed) {
    std::fprintf(stderr, "wow: IpPacket rejected %zu-byte payload (max %zu)\n",
                 len, ByteWriter::kMaxLenPrefixed);
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
  auto proto = r.u8();
  auto ttl = r.u8();
  auto id = r.u16();
  auto src = r.u32();
  auto dst = r.u32();
  auto len = r.u16();
  if (!proto || !ttl || !id || !src || !dst || !len) return std::nullopt;
  if (*proto != static_cast<std::uint8_t>(IpProto::kIcmp) &&
      *proto != static_cast<std::uint8_t>(IpProto::kTcp) &&
      *proto != static_cast<std::uint8_t>(IpProto::kUdp)) {
    return std::nullopt;
  }
  if (r.remaining() < *len) return std::nullopt;
  IpPacket p;
  p.proto = static_cast<IpProto>(*proto);
  p.ttl = *ttl;
  p.id = *id;
  p.src = net::Ipv4Addr{*src};
  p.dst = net::Ipv4Addr{*dst};
  p.payload = r.rest().first(*len);
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
  auto type = r.u8();
  auto code = r.u8();
  auto ident = r.u16();
  auto seq = r.u16();
  auto timestamp = r.i64();
  auto padding = r.u16();
  if (!type || !code || !ident || !seq || !timestamp || !padding) {
    return std::nullopt;
  }
  if (*type != kEchoRequest && *type != kEchoReply) return std::nullopt;
  IcmpEcho e;
  e.type = *type;
  e.ident = *ident;
  e.seq = *seq;
  e.timestamp = *timestamp;
  e.padding = *padding;
  return e;
}

}  // namespace wow::ipop
