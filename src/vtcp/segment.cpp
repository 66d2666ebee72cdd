#include "vtcp/segment.h"

namespace wow::vtcp {

bool Segment::push_header(FrameBuf& frame) const {
  const std::size_t len = frame.size();
  if (!length_fits("Segment payload", len, ByteWriter::kMaxLenPrefixed)) {
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
  Segment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u32();
  s.ack = r.u32();
  s.flags = r.u8();
  s.window = r.u32();
  s.payload = r.bytes(r.u16());
  if (!r.ok()) return std::nullopt;
  return s;
}

}  // namespace wow::vtcp
