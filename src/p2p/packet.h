#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/ring_id.h"
#include "transport/uri.h"

namespace wow::p2p {

/// P2P addresses are 160-bit ids on the Brunet ring.
using Address = RingId;

/// Types of overlay connections (paper §IV, Figure 2).
enum class ConnectionType : std::uint8_t {
  kLeaf = 1,            // bootstrap link to a public node
  kStructuredNear = 2,  // ring neighbor
  kStructuredFar = 3,   // long-range link (routing accelerator)
  kShortcut = 4,        // on-demand direct link created by traffic
  kRelay = 5,           // tunnel through a mutual neighbor when no direct
                        // path exists (non-hairpin NAT pair, §V-B; long
                        // partitions); upgraded to a direct link by
                        // periodic probes once reachability returns
};

[[nodiscard]] const char* to_string(ConnectionType type);

/// Outer frame discriminator.
///
/// Every frame carries a 32-bit checksum (frame_checksum) right after
/// this byte.  UDP's own 16-bit checksum is weak — the fault model lets
/// half of all corrupted datagrams through it — and a bit-flipped frame
/// that still parses would install a phantom address (a node that does
/// not exist) into connection tables.  The application-level checksum
/// closes that: parse() rejects any frame whose recomputed checksum
/// disagrees, and the node counts the reject.  For routed frames the
/// checksum covers only the fields a forwarding hop may NOT rewrite
/// (plus the payload), so it is computed once at origin and survives
/// in-place forwarding.
enum class FrameKind : std::uint8_t {
  kRouted = 1,  // forwarded hop-by-hop over the structured ring
  kLink = 2,    // direct link-level message between two endpoints
  kRelay = 3,   // source-routed tunnel frame: src asks a mutual neighbor
                // to hand the wrapped inner frame to dst (one hop only)
  kCensus = 4,  // ring-census probe walking the successor chain; detects
                // and merges independently-formed rings
};

/// One past the highest FrameKind (kinds are 1-based wire bytes).  The
/// wire suites pin it, so adding a kind revisits them.
inline constexpr std::size_t kFrameKindCount = 5;

/// Payload types carried inside a routed packet.
enum class RoutedType : std::uint8_t {
  kData = 1,        // tunnelled virtual-network traffic (IPOP)
  kCtmRequest = 2,  // Connect-To-Me request (§IV-B)
  kCtmReply = 3,    // Connect-To-Me reply
};

/// Delivery semantics of a routed packet.
enum class DeliveryMode : std::uint8_t {
  kExact = 1,    // only the addressed node consumes it
  kNearest = 2,  // closest node(s) consume it; a join CTM addressed to
                 // the joiner lands on both sides of its ring gap
};

/// A packet routed greedily over structured connections.
///
/// The packet holds one representation of its bytes: its frame.  A
/// packet parsed from the wire keeps the buffer it arrived in; a
/// locally-built one holds a frame whose payload sits behind
/// kHeaderBytes of headroom, and its first wire() writes the header and
/// checksum there in place.  The payload is a view into the frame
/// either way, and after that first wire() every wire() rewrites only
/// the in-flight-mutable header fields (ttl, hops, bounced, via) — a
/// forwarding hop touches a couple of dozen bytes instead of
/// reallocating and copying the frame.
struct RoutedPacket {
  /// Fixed header size: kind (1) + checksum (4) + the immutable fields
  /// — mode, type (1 each), src/dst ring ids (20 each), trace id (8) —
  /// followed by the in-flight-mutable tail the checksum skips: ttl,
  /// hops, bounced (1 each) + via ring id (20).
  static constexpr std::size_t kHeaderBytes = 78;
  /// Wire offset of the RoutedType byte — fixed so the datagram path
  /// can classify control vs data with one compare, no parse (the rate
  /// limiter's shed-priority peek, DESIGN §16).
  static constexpr std::size_t kTypeOffset = 6;
  /// Ceiling on the payload a routed frame may carry (a simulated UDP
  /// datagram); serialize() fails loudly above it.
  static constexpr std::size_t kMaxPayloadBytes = 0xffff;
  /// Hop budget a node stamps on every routed packet it originates.
  static constexpr std::uint8_t kOriginTtl = 48;

  Address src;
  Address dst;
  /// Optional forwarding agent (§IV-C): when non-zero the packet is
  /// first routed to `via`, which then forwards it toward dst over its
  /// direct connection — how CTM replies reach a node that is not yet in
  /// the ring.
  Address via;
  std::uint8_t ttl = 32;
  std::uint8_t hops = 0;
  DeliveryMode mode = DeliveryMode::kExact;
  /// Set once the packet has been handed across a ring gap so the two
  /// gap endpoints don't bounce it back and forth.
  bool bounced = false;
  RoutedType type = RoutedType::kData;
  /// Observability correlation id, carried on the wire so every node a
  /// packet visits logs the same id: a packet's hop-by-hop path and its
  /// drop reason are reconstructable from a merged trace.  Assigned by
  /// the origin from Simulator::next_trace_id(); 0 = untraced.
  std::uint64_t trace_id = 0;

  /// Attach a locally-built payload: copied once into a new frame
  /// (drops any parsed-from frame).
  void set_payload(BytesView payload);
  /// Adopt a locally-built frame whose content is the payload, with at
  /// least kHeaderBytes of headroom left in front of it: the upper
  /// layers' headers are already in place, and wire() writes this one.
  void set_frame(FrameBuf frame);

  /// The payload: a view into the frame.
  [[nodiscard]] BytesView payload() const;

  /// The whole frame as a fresh buffer (one copy).  Returns an empty
  /// buffer — loudly, via stderr — if the payload exceeds
  /// kMaxPayloadBytes.
  [[nodiscard]] Bytes serialize() const;

  /// The frame to send.  A locally-built packet's first call writes the
  /// whole header and the checksum into its headroom; every later call,
  /// and every call on a parsed packet, rewrites ttl/hops/bounced/via in
  /// place (copy-on-write when the buffer is shared with a bounce copy
  /// or an in-flight delivery).  Empty, like serialize(), for an
  /// oversize payload.
  [[nodiscard]] SharedBytes wire();

  /// Zero-copy parse: the returned packet references `frame` and its
  /// payload() is a view into it.
  [[nodiscard]] static std::optional<RoutedPacket> parse(SharedBytes frame);
  /// Copying parse for callers holding only a borrowed span.
  [[nodiscard]] static std::optional<RoutedPacket> parse(BytesView frame);

 private:
  /// Write the whole header into `frame` (kHeaderBytes, then the
  /// payload) and checksum it.
  void write_header(std::span<std::uint8_t> frame) const;

  /// kHeaderBytes of header (or headroom), then the payload; empty for
  /// a packet built with no payload that has never been sent.
  SharedBytes frame_;
  /// True once the header bytes in frame_ hold every field: a parsed
  /// packet, or a built one after its first wire().
  bool sealed_ = false;
};

/// Connect-To-Me request body: the initiator's URI list and the desired
/// connection type.  (The initiator's address is the routed src.)
struct CtmRequest {
  ConnectionType con_type = ConnectionType::kShortcut;
  std::vector<transport::Uri> uris;
  /// Token echoed in the reply so the initiator can match request/reply.
  std::uint32_t token = 0;
  /// Forwarding agent for the reply (zero = route directly): a joining
  /// node not yet in the ring asks that replies travel via its leaf
  /// target (§IV-C).
  Address forwarder;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<CtmRequest> parse(
      std::span<const std::uint8_t> body);
};

/// Neighbor hint carried in a CTM reply: the responder tells the
/// initiator about one of its own ring neighbors (address + URIs) so a
/// joining node can reach both sides of its gap.
struct NeighborHint {
  Address addr;
  std::vector<transport::Uri> uris;
};

/// Connect-To-Me reply body.
struct CtmReply {
  ConnectionType con_type = ConnectionType::kShortcut;
  std::vector<transport::Uri> uris;  // responder's URIs
  std::uint32_t token = 0;
  std::vector<NeighborHint> neighbors;
  /// Gossip peer samples: random entries from the responder's table,
  /// piggybacked on join replies so joiners warm their peer caches
  /// without extra frames — future rejoins then spread off the
  /// bootstrap leaves (Wolinsky-style cached-peer bootstrap).
  std::vector<NeighborHint> samples;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<CtmReply> parse(
      std::span<const std::uint8_t> body);
};

/// Link-level message subtypes (never routed; sent straight to a URI).
enum class LinkType : std::uint8_t {
  kRequest = 1,  // linking handshake request
  kReply = 2,    // handshake accept; echoes the observed source endpoint
  kError = 3,    // race-break: "abandon your attempt, mine is active"
  kPing = 4,     // keepalive probe
  kPong = 5,     // keepalive answer
  kClose = 6,    // graceful teardown
};

/// A link-level frame.
struct LinkFrame {
  LinkType type = LinkType::kRequest;
  Address sender;
  ConnectionType con_type = ConnectionType::kLeaf;
  /// Attempt identifier: lets duplicated/reordered handshake messages be
  /// matched to the right linking attempt.
  std::uint32_t token = 0;
  /// In kReply: the endpoint the replier saw the request come from — the
  /// requester learns its NAT-assigned public address from this.
  net::Endpoint observed;
  /// In kRequest/kReply: sender's URI list (for the peer's records).
  std::vector<transport::Uri> uris;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<LinkFrame> parse(
      std::span<const std::uint8_t> frame);
};

/// A relay tunnel frame: the degraded path for a peer pair with no
/// working direct endpoint (non-hairpin NATs, a partition outliving the
/// linking retries).  `src` sends the frame to a mutual neighbor
/// (`relay`), which forwards it — once, enforced by `hops` — over its
/// direct connection to `dst`.  The inner payload is a complete link or
/// routed frame, so keepalives, handshakes and overlay routing all work
/// unchanged through the tunnel.
///
/// Wire layout: kind (1) + checksum (4) + src/relay/dst ring ids (20
/// each) + hops (1), then the inner frame.  The checksum skips the hops
/// byte — the relay agent increments it in place, exactly like the
/// mutable tail of a routed frame.
struct RelayFrame {
  static constexpr std::size_t kHeaderBytes = 66;

  Address src;
  Address relay;
  Address dst;
  std::uint8_t hops = 0;

  /// The wrapped inner frame (view into the parsed-from buffer).
  [[nodiscard]] BytesView payload() const {
    return frame_.view().subspan(kHeaderBytes);
  }
  /// The buffer this frame was parsed from (forwarded verbatim).
  [[nodiscard]] SharedBytes frame() const { return frame_; }

  /// Build the full wire frame around `inner` (a serialized link or
  /// routed frame).
  [[nodiscard]] static Bytes wrap(const Address& src, const Address& relay,
                                  const Address& dst, BytesView inner);

  /// Increment the hops byte of a parsed relay frame in place (COW when
  /// shared) and return the buffer to forward.  The checksum excludes
  /// hops, so the origin's checksum stays valid.
  [[nodiscard]] SharedBytes forwarded();

  /// Zero-copy parse: payload() views into `frame`.
  [[nodiscard]] static std::optional<RelayFrame> parse(SharedBytes frame);
  /// Copying parse for callers holding only a borrowed span.
  [[nodiscard]] static std::optional<RelayFrame> parse(BytesView frame);

 private:
  SharedBytes frame_;
};

/// A ring-census probe (self-stabilizing merge protocol).  The origin
/// launches it at its successor; each hop increments `hops` and hands
/// the probe to its own successor.  Back at the origin, `hops` is the
/// ring size.  A node whose successor gap CONTAINS the origin — yet
/// which holds no connection to it — has discovered a foreign ring
/// segment: two overlays formed independently (flash crowd, healed
/// partition, disjoint bootstrap lists) and must merge.  The discoverer
/// links to the origin over the carried URIs, the join/stabilize
/// machinery does the rest, and the probe stops there.
///
/// Wire layout: kind (1) + checksum (4) + origin ring id (20) + hops
/// (2) + ttl (2) + origin URI list.  Hops changes at every hop, so the
/// frame is re-serialized per hop (cheap: censuses are rare and tiny)
/// and the checksum covers the full body, link-frame style.
struct CensusFrame {
  Address origin;
  std::uint16_t hops = 0;
  /// Walk bound: a probe that crossed into a foreign ring and missed
  /// the merge window must die, not orbit forever.
  std::uint16_t ttl = 0;
  std::vector<transport::Uri> origin_uris;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<CensusFrame> parse(
      std::span<const std::uint8_t> frame);
};

/// Peek the outer frame kind without a full parse.
[[nodiscard]] std::optional<FrameKind> frame_kind(
    std::span<const std::uint8_t> frame);

/// The checksum every frame kind stores big-endian at bytes 1..4: the
/// low 32 bits of XXH64 (seed 0) over the covered bytes, taken as one
/// stream.  The covered bytes are the kind byte and everything after the
/// checksum field, minus the bytes a forwarding hop rewrites in place:
/// ttl, hops, bounced and via (bytes 55..77) of a routed frame, the hops
/// byte (65) of a relay frame.  XXH64 reads little-endian 64-bit words
/// into four independent lanes and mixes in the length, so verifying a
/// frame at every hop costs a fraction of a nanosecond per byte, and the
/// value is the same on any host byte order.  Total over any input: a
/// frame shorter than its kind's header hashes the covered bytes it has.
[[nodiscard]] std::uint32_t frame_checksum(
    std::span<const std::uint8_t> frame);

}  // namespace wow::p2p
