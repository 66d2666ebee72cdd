#include "vtcp/segment.h"

#include <cstdio>

namespace wow::vtcp {

bool Segment::push_header(FrameBuf& frame) const {
  std::size_t len = frame.size();
  if (len > ByteWriter::kMaxLenPrefixed) {
    std::fprintf(stderr, "wow: Segment rejected %zu-byte payload (max %zu)\n",
                 len, ByteWriter::kMaxLenPrefixed);
    return false;
  }
  HeaderWriter w(frame.push(kHeaderBytes));
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(flags);
  w.u32(window);
  w.u16(static_cast<std::uint16_t>(len));
  return true;
}

Bytes Segment::serialize() const {
  FrameBuf frame(kHeaderBytes, payload);
  if (!push_header(frame)) return {};
  return std::move(frame).take();
}

std::optional<Segment> Segment::parse(BytesView data) {
  ByteReader r(data);
  auto src_port = r.u16();
  auto dst_port = r.u16();
  auto seq = r.u32();
  auto ack = r.u32();
  auto flags = r.u8();
  auto window = r.u32();
  auto len = r.u16();
  if (!src_port || !dst_port || !seq || !ack || !flags || !window || !len) {
    return std::nullopt;
  }
  if (r.remaining() < *len) return std::nullopt;
  Segment s;
  s.src_port = *src_port;
  s.dst_port = *dst_port;
  s.seq = *seq;
  s.ack = *ack;
  s.flags = *flags;
  s.window = *window;
  s.payload = r.rest().first(*len);
  return s;
}

}  // namespace wow::vtcp
