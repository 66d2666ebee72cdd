#include "p2p/packet.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace wow::p2p {

const char* to_string(ConnectionType type) {
  switch (type) {
    case ConnectionType::kLeaf: return "leaf";
    case ConnectionType::kStructuredNear: return "near";
    case ConnectionType::kStructuredFar: return "far";
    case ConnectionType::kShortcut: return "shortcut";
    case ConnectionType::kRelay: return "relay";
  }
  return "?";
}

namespace {

[[nodiscard]] bool valid(ConnectionType t) {
  return t >= ConnectionType::kLeaf && t <= ConnectionType::kRelay;
}

/// Read the kind byte and checksum field every frame opens with: the
/// stored checksum, the reader failed unless the kind byte is `kind`.
[[nodiscard]] std::uint32_t read_head(ByteReader& r, FrameKind kind) {
  if (r.u8() != static_cast<std::uint8_t>(kind)) r.fail();
  return r.u32();
}

/// A CTM reply's neighbor or sample list: a count byte, then that many
/// hints.
[[nodiscard]] std::vector<NeighborHint> read_hints(ByteReader& r) {
  const std::uint8_t count = r.u8();
  std::vector<NeighborHint> hints;
  for (int i = 0; i < count && r.ok(); ++i) {
    NeighborHint& h = hints.emplace_back();
    h.addr = r.ring_id();
    h.uris = transport::read_uri_list(r);
  }
  return hints;
}

/// Per-URI wire size (kind + ip + port) and the list's count byte.
[[nodiscard]] std::size_t uri_list_bytes(
    const std::vector<transport::Uri>& uris) {
  return 1 + 7 * uris.size();
}

/// Store the checksum of a finished frame in its field (bytes 1..4).
void seal_checksum(std::span<std::uint8_t> frame) {
  HeaderWriter(frame.data() + 1).u32(frame_checksum(frame));
}

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

[[nodiscard]] std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t le = 0;
    for (int i = 0; i < 8; ++i) le = (le << 8) | ((v >> (8 * i)) & 0xff);
    v = le;
  }
  return v;
}

[[nodiscard]] std::uint64_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) |
         static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 |
         static_cast<std::uint64_t>(p[3]) << 24;
}

[[nodiscard]] std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Streaming XXH64 (seed 0): frame_checksum feeds it the covered regions
/// of a frame one after another, and it hashes them as one input.  Whole
/// 32-byte stripes go straight from the caller's buffer through the four
/// lanes; only a stripe that straddles two regions, and the final
/// partial stripe that digest() folds in, are staged in `held_`.
class FrameHasher {
 public:
  void update(std::span<const std::uint8_t> bytes) {
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    total_ += n;
    if (held_bytes_ > 0) {
      std::size_t take = std::min(n, kStripe - held_bytes_);
      std::memcpy(held_.data() + held_bytes_, p, take);
      held_bytes_ += take;
      p += take;
      n -= take;
      if (held_bytes_ < kStripe) return;
      stripes(held_.data(), 1);
      held_bytes_ = 0;
    }
    stripes(p, n / kStripe);
    p += n - n % kStripe;
    n %= kStripe;
    if (n > 0) std::memcpy(held_.data(), p, n);
    held_bytes_ = n;
  }

  [[nodiscard]] std::uint32_t digest() const {
    std::uint64_t h = kPrime5;
    if (total_ >= kStripe) {
      h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
          std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
      for (std::uint64_t lane : lanes_) {
        h = (h ^ xxh_round(0, lane)) * kPrime1 + kPrime4;
      }
    }
    h += total_;
    const std::uint8_t* p = held_.data();
    std::size_t n = held_bytes_;
    for (; n >= 8; p += 8, n -= 8) {
      h = std::rotl(h ^ xxh_round(0, load_le64(p)), 27) * kPrime1 + kPrime4;
    }
    if (n >= 4) {
      h = std::rotl(h ^ load_le32(p) * kPrime1, 23) * kPrime2 + kPrime3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) h = std::rotl(h ^ *p * kPrime5, 11) * kPrime1;
    h = (h ^ (h >> 33)) * kPrime2;
    h = (h ^ (h >> 29)) * kPrime3;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

 private:
  static constexpr std::size_t kStripe = 32;

  void stripes(const std::uint8_t* p, std::size_t count) {
    // Locals, not the members: the lanes stay in registers, since stores
    // through `this` could otherwise alias the byte loads from `p`.
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2],
                  d = lanes_[3];
    for (; count > 0; --count, p += kStripe) {
      a = xxh_round(a, load_le64(p));
      b = xxh_round(b, load_le64(p + 8));
      c = xxh_round(c, load_le64(p + 16));
      d = xxh_round(d, load_le64(p + 24));
    }
    lanes_ = {a, b, c, d};
  }

  std::array<std::uint64_t, 4> lanes_{kPrime1 + kPrime2, kPrime2, 0,
                                      0 - kPrime1};
  std::array<std::uint8_t, kStripe> held_{};
  std::size_t held_bytes_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace

std::uint32_t frame_checksum(std::span<const std::uint8_t> frame) {
  const std::size_t n = frame.size();
  // The in-place-rewritten range the checksum skips besides its own
  // field (bytes 1..4); empty for link and census frames.
  std::size_t skip_begin = n;
  std::size_t skip_end = n;
  if (n > 0 && frame[0] == static_cast<std::uint8_t>(FrameKind::kRouted)) {
    skip_begin = 55;  // ttl, hops, bounced, via
    skip_end = RoutedPacket::kHeaderBytes;
  } else if (n > 0 &&
             frame[0] == static_cast<std::uint8_t>(FrameKind::kRelay)) {
    skip_begin = 65;  // hops
    skip_end = RelayFrame::kHeaderBytes;
  }
  FrameHasher h;
  auto cover = [&](std::size_t begin, std::size_t end) {
    end = std::min(end, n);
    if (begin < end) h.update(frame.subspan(begin, end - begin));
  };
  cover(0, 1);
  cover(5, skip_begin);
  cover(skip_end, n);
  return h.digest();
}

void RoutedPacket::set_payload(BytesView payload) {
  set_frame(FrameBuf(kHeaderBytes, payload));
}

void RoutedPacket::set_frame(FrameBuf frame) {
  // The header is written by the first wire(), once every field is set.
  (void)frame.push(kHeaderBytes);
  frame_ = SharedBytes(std::move(frame).take());
  sealed_ = false;
}

BytesView RoutedPacket::payload() const {
  if (frame_.empty()) return {};
  return frame_.view().subspan(kHeaderBytes);
}

void RoutedPacket::write_header(std::span<std::uint8_t> frame) const {
  HeaderWriter w(frame.data());
  w.u8(static_cast<std::uint8_t>(FrameKind::kRouted));
  w.u32(0);  // checksum, sealed below once the header is complete
  w.u8(static_cast<std::uint8_t>(mode));
  w.u8(static_cast<std::uint8_t>(type));
  w.ring_id(src);
  w.ring_id(dst);
  w.u64(trace_id);
  w.u8(ttl);
  w.u8(hops);
  w.u8(bounced ? 1 : 0);
  w.ring_id(via);
  seal_checksum(frame);
}

Bytes RoutedPacket::serialize() const {
  BytesView body = payload();
  if (!length_fits("RoutedPacket payload", body.size(), kMaxPayloadBytes)) {
    return {};
  }
  Bytes out;
  out.reserve(kHeaderBytes + body.size());
  out.resize(kHeaderBytes);
  out.insert(out.end(), body.begin(), body.end());
  write_header(out);
  return out;
}

SharedBytes RoutedPacket::wire() {
  if (!sealed_) {
    // Locally built: write the whole header into the headroom once.  A
    // later wire() (retransmit, bounce copy) takes the in-place path
    // below.
    if (frame_.empty()) set_payload({});
    if (!length_fits("RoutedPacket payload", frame_.size() - kHeaderBytes,
                     kMaxPayloadBytes)) {
      return {};
    }
    write_header({frame_.mutable_data(), frame_.size()});
    sealed_ = true;
    return frame_;
  }
  // Rewrite exactly the fields the forwarding path mutates in flight —
  // all outside the checksummed region, so the origin's checksum stays
  // valid.  COW inside mutable_data() protects bounce copies and frames
  // still queued for a deferred delivery event.
  HeaderWriter w(frame_.mutable_data() + 55);
  w.u8(ttl);
  w.u8(hops);
  w.u8(bounced ? 1 : 0);
  w.ring_id(via);
  return frame_;
}

std::optional<RoutedPacket> RoutedPacket::parse(SharedBytes frame) {
  ByteReader r(frame.view());
  const std::uint32_t csum = read_head(r, FrameKind::kRouted);
  RoutedPacket p;
  p.mode = static_cast<DeliveryMode>(r.u8());
  p.type = static_cast<RoutedType>(r.u8());
  p.src = r.ring_id();
  p.dst = r.ring_id();
  p.trace_id = r.u64();
  p.ttl = r.u8();
  p.hops = r.u8();
  p.bounced = r.u8() != 0;
  p.via = r.ring_id();
  if (!r.ok() ||
      (p.mode != DeliveryMode::kExact && p.mode != DeliveryMode::kNearest) ||
      p.type < RoutedType::kData || p.type > RoutedType::kCtmReply ||
      csum != frame_checksum(frame.view())) {
    return std::nullopt;
  }
  // Zero-copy: the payload stays in the frame buffer; payload() views it.
  p.frame_ = std::move(frame);
  p.sealed_ = true;
  return p;
}

std::optional<RoutedPacket> RoutedPacket::parse(BytesView frame) {
  return parse(SharedBytes(Bytes(frame.begin(), frame.end())));
}

Bytes CtmRequest::serialize() const {
  ByteWriter w;
  w.reserve(1 + 4 + 20 + uri_list_bytes(uris));
  w.u8(static_cast<std::uint8_t>(con_type));
  w.u32(token);
  w.ring_id(forwarder);
  transport::write_uri_list(w, uris);
  return std::move(w).take();
}

std::optional<CtmRequest> CtmRequest::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  CtmRequest req;
  req.con_type = static_cast<ConnectionType>(r.u8());
  req.token = r.u32();
  req.forwarder = r.ring_id();
  req.uris = transport::read_uri_list(r);
  if (!r.ok() || !valid(req.con_type)) return std::nullopt;
  return req;
}

Bytes CtmReply::serialize() const {
  std::size_t hint_bytes = 0;
  for (const NeighborHint& n : neighbors) {
    hint_bytes += 20 + uri_list_bytes(n.uris);
  }
  for (const NeighborHint& n : samples) {
    hint_bytes += 20 + uri_list_bytes(n.uris);
  }
  ByteWriter w;
  w.reserve(1 + 4 + uri_list_bytes(uris) + 2 + hint_bytes);
  w.u8(static_cast<std::uint8_t>(con_type));
  w.u32(token);
  transport::write_uri_list(w, uris);
  w.u8(static_cast<std::uint8_t>(neighbors.size()));
  for (const NeighborHint& n : neighbors) {
    w.ring_id(n.addr);
    transport::write_uri_list(w, n.uris);
  }
  w.u8(static_cast<std::uint8_t>(samples.size()));
  for (const NeighborHint& n : samples) {
    w.ring_id(n.addr);
    transport::write_uri_list(w, n.uris);
  }
  return std::move(w).take();
}

std::optional<CtmReply> CtmReply::parse(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  CtmReply rep;
  rep.con_type = static_cast<ConnectionType>(r.u8());
  rep.token = r.u32();
  rep.uris = transport::read_uri_list(r);
  rep.neighbors = read_hints(r);
  rep.samples = read_hints(r);
  if (!r.ok() || !valid(rep.con_type)) return std::nullopt;
  return rep;
}

Bytes LinkFrame::serialize() const {
  ByteWriter w;
  w.reserve(1 + 4 + 1 + 1 + 4 + 20 + 4 + 2 + uri_list_bytes(uris));
  w.u8(static_cast<std::uint8_t>(FrameKind::kLink));
  w.u32(0);  // checksum, patched below once the frame is complete
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(con_type));
  w.u32(token);
  w.ring_id(sender);
  w.u32(observed.ip.value());
  w.u16(observed.port);
  transport::write_uri_list(w, uris);
  Bytes out = std::move(w).take();
  seal_checksum(out);
  return out;
}

std::optional<LinkFrame> LinkFrame::parse(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const std::uint32_t csum = read_head(r, FrameKind::kLink);
  LinkFrame f;
  f.type = static_cast<LinkType>(r.u8());
  f.con_type = static_cast<ConnectionType>(r.u8());
  f.token = r.u32();
  f.sender = r.ring_id();
  f.observed.ip = net::Ipv4Addr{r.u32()};
  f.observed.port = r.u16();
  f.uris = transport::read_uri_list(r);
  if (!r.ok() || f.type < LinkType::kRequest || f.type > LinkType::kClose ||
      !valid(f.con_type) || csum != frame_checksum(frame)) {
    return std::nullopt;
  }
  return f;
}

Bytes RelayFrame::wrap(const Address& src, const Address& relay,
                       const Address& dst, BytesView inner) {
  ByteWriter w;
  w.reserve(kHeaderBytes + inner.size());
  w.u8(static_cast<std::uint8_t>(FrameKind::kRelay));
  w.u32(0);  // checksum, patched below once the frame is complete
  w.ring_id(src);
  w.ring_id(relay);
  w.ring_id(dst);
  w.u8(0);  // hops: incremented in place by the relay agent
  w.raw(inner);
  Bytes out = std::move(w).take();
  seal_checksum(out);
  return out;
}

SharedBytes RelayFrame::forwarded() {
  std::uint8_t* b = frame_.mutable_data();
  b[65] = static_cast<std::uint8_t>(hops + 1);
  return frame_;
}

std::optional<RelayFrame> RelayFrame::parse(SharedBytes frame) {
  ByteReader r(frame.view());
  const std::uint32_t csum = read_head(r, FrameKind::kRelay);
  RelayFrame f;
  f.src = r.ring_id();
  f.relay = r.ring_id();
  f.dst = r.ring_id();
  f.hops = r.u8();
  // An empty tunnel is nonsense.
  if (!r.ok() || r.exhausted() || csum != frame_checksum(frame.view())) {
    return std::nullopt;
  }
  f.frame_ = std::move(frame);
  return f;
}

std::optional<RelayFrame> RelayFrame::parse(BytesView frame) {
  return parse(SharedBytes(Bytes(frame.begin(), frame.end())));
}

Bytes CensusFrame::serialize() const {
  ByteWriter w;
  w.reserve(1 + 4 + 20 + 2 + 2 + uri_list_bytes(origin_uris));
  w.u8(static_cast<std::uint8_t>(FrameKind::kCensus));
  w.u32(0);  // checksum, patched below once the frame is complete
  w.ring_id(origin);
  w.u16(hops);
  w.u16(ttl);
  transport::write_uri_list(w, origin_uris);
  Bytes out = std::move(w).take();
  seal_checksum(out);
  return out;
}

std::optional<CensusFrame> CensusFrame::parse(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const std::uint32_t csum = read_head(r, FrameKind::kCensus);
  CensusFrame f;
  f.origin = r.ring_id();
  f.hops = r.u16();
  f.ttl = r.u16();
  f.origin_uris = transport::read_uri_list(r);
  if (!r.ok() || csum != frame_checksum(frame)) return std::nullopt;
  return f;
}

std::optional<FrameKind> frame_kind(std::span<const std::uint8_t> frame) {
  if (frame.empty() || frame[0] == 0 || frame[0] >= kFrameKindCount) {
    return std::nullopt;
  }
  return static_cast<FrameKind>(frame[0]);
}

}  // namespace wow::p2p
