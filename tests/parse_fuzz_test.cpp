// Deterministic fuzz tests for every wire parser: truncation sweeps,
// seeded bit flips, and raw garbage must all yield a clean rejection
// (nullopt) or a successful parse — never UB.  Run under the ASan/UBSan
// CI job, these are the "no parser crashes under corruption" gate.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "common/flight_recorder.h"
#include "ipop/ip_packet.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "test_util.h"
#include "transport/uri.h"
#include "vtcp/segment.h"

namespace wow {
namespace {

/// One representative well-formed frame per parser, with the variable
/// sections (URI lists, payloads, neighbor hints) populated so every
/// parse branch is reachable by mutation.
[[nodiscard]] std::vector<transport::Uri> sample_uris() {
  return {
      transport::Uri{transport::TransportKind::kUdp,
                     net::Endpoint{net::Ipv4Addr(10, 0, 0, 1), 17000}},
      transport::Uri{transport::TransportKind::kUdp,
                     net::Endpoint{net::Ipv4Addr(128, 4, 5, 6), 40001}},
  };
}

/// A routed frame carrying `payload_bytes` of patterned payload.
[[nodiscard]] Bytes routed_with_payload(std::size_t payload_bytes) {
  p2p::RoutedPacket p;
  p.ttl = 48;
  p.hops = 3;
  p.mode = p2p::DeliveryMode::kNearest;
  p.type = p2p::RoutedType::kData;
  p.src = RingId{0x1111};
  p.dst = RingId{0x2222};
  p.via = RingId{0x3333};
  p.trace_id = 77;
  Bytes payload(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i + 1);
  }
  p.set_payload(std::move(payload));
  return p.serialize();
}

[[nodiscard]] Bytes sample_routed() { return routed_with_payload(8); }

[[nodiscard]] Bytes sample_link() {
  p2p::LinkFrame f;
  f.type = p2p::LinkType::kRequest;
  f.con_type = p2p::ConnectionType::kStructuredNear;
  f.token = 99;
  f.sender = RingId{0x4444};
  f.observed = net::Endpoint{net::Ipv4Addr(150, 0, 0, 9), 12345};
  f.uris = sample_uris();
  return f.serialize();
}

[[nodiscard]] Bytes sample_ctm_request() {
  p2p::CtmRequest req;
  req.con_type = p2p::ConnectionType::kStructuredFar;
  req.token = 41;
  req.forwarder = RingId{0x5555};
  req.uris = sample_uris();
  return req.serialize();
}

[[nodiscard]] Bytes sample_ctm_reply() {
  p2p::CtmReply rep;
  rep.con_type = p2p::ConnectionType::kShortcut;
  rep.token = 42;
  rep.uris = sample_uris();
  rep.neighbors.push_back(
      p2p::NeighborHint{RingId{0x6666}, sample_uris()});
  rep.neighbors.push_back(p2p::NeighborHint{RingId{0x7777}, {}});
  return rep.serialize();
}

[[nodiscard]] Bytes sample_relay() {
  Bytes inner = sample_link();
  return p2p::RelayFrame::wrap(RingId{0x8888}, RingId{0x9999},
                               RingId{0xaaaa}, BytesView(inner));
}

[[nodiscard]] Bytes sample_census() {
  p2p::CensusFrame f;
  f.origin = RingId{0xbbbb};
  f.hops = 5;
  f.ttl = 300;
  f.origin_uris = sample_uris();
  return f.serialize();
}

[[nodiscard]] Bytes sample_ip_packet() {
  ipop::IpPacket p;
  p.proto = ipop::IpProto::kUdp;
  p.ttl = 64;
  p.id = 7;
  p.src = net::Ipv4Addr(172, 16, 1, 2);
  p.dst = net::Ipv4Addr(172, 16, 1, 3);
  const Bytes body{9, 8, 7, 6, 5};
  p.payload = body;
  return p.serialize();
}

[[nodiscard]] Bytes sample_icmp_echo() {
  ipop::IcmpEcho e;
  e.type = ipop::IcmpEcho::kEchoRequest;
  e.ident = 3;
  e.seq = 9;
  e.timestamp = 123456789;
  e.padding = 6;  // the bytes after the header, which a prefix can cut
  return e.serialize();
}

[[nodiscard]] Bytes sample_segment() {
  vtcp::Segment s;
  s.src_port = 40000;
  s.dst_port = 80;
  s.seq = 1000;
  s.ack = 2000;
  s.flags = vtcp::kSyn | vtcp::kAck;
  s.window = 65535;
  const Bytes body{1, 2, 3};
  s.payload = body;
  return s.serialize();
}

/// Every parser under one uniform signature: bytes in, accepted or not
/// out.  Each call must be memory-safe regardless of input.
using ParseFn = bool (*)(BytesView);

const std::pair<const char*, ParseFn> kParsers[] = {
    {"routed",
     [](BytesView b) { return p2p::RoutedPacket::parse(b).has_value(); }},
    {"link",
     [](BytesView b) { return p2p::LinkFrame::parse(b).has_value(); }},
    {"ctm_request",
     [](BytesView b) { return p2p::CtmRequest::parse(b).has_value(); }},
    {"ctm_reply",
     [](BytesView b) { return p2p::CtmReply::parse(b).has_value(); }},
    {"relay",
     [](BytesView b) { return p2p::RelayFrame::parse(b).has_value(); }},
    {"census",
     [](BytesView b) { return p2p::CensusFrame::parse(b).has_value(); }},
    {"ip_packet",
     [](BytesView b) { return ipop::IpPacket::parse(b).has_value(); }},
    {"icmp_echo",
     [](BytesView b) { return ipop::IcmpEcho::parse(b).has_value(); }},
    {"segment",
     [](BytesView b) { return vtcp::Segment::parse(b).has_value(); }},
};

/// One sample frame per parser, in kParsers order.
[[nodiscard]] std::vector<Bytes> sample_frames() {
  return {sample_routed(),    sample_link(),      sample_ctm_request(),
          sample_ctm_reply(), sample_relay(),     sample_census(),
          sample_ip_packet(), sample_icmp_echo(), sample_segment()};
}

/// Every prefix of every valid frame, through every parser.  A strict
/// prefix of a frame must never be accepted by its own parser (all our
/// formats are length-checked to the end of the fixed header and
/// explicit about variable-length sections).
TEST(ParseFuzz, TruncationSweepIsCleanlyRejected) {
  const std::vector<Bytes> frames = sample_frames();
  ASSERT_EQ(frames.size(), std::size(kParsers));
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const Bytes& frame = frames[f];
    for (std::size_t len = 0; len < frame.size(); ++len) {
      BytesView prefix(frame.data(), len);
      for (const auto& [name, parse] : kParsers) {
        (void)parse(prefix);  // must not crash
      }
      EXPECT_FALSE(kParsers[f].second(prefix))
          << kParsers[f].first << " accepted a " << len << "-byte prefix";
    }
  }
  // Full frames parse through at least one parser each.
  for (const Bytes& frame : sample_frames()) {
    bool accepted = false;
    for (const auto& [name, parse] : kParsers) {
      accepted = accepted || parse(frame);
    }
    EXPECT_TRUE(accepted);
  }
}

/// Strict prefixes of a frame never parse as that frame (no parser
/// reads past what it thinks the frame contains and silently succeeds
/// on a truncated fixed header).
TEST(ParseFuzz, StrictHeaderPrefixRejected) {
  // Header-only truncations: cut inside the fixed header, before any
  // variable-length payload whose length field could legitimately make
  // a shorter buffer valid.
  Bytes routed = sample_routed();
  EXPECT_FALSE(p2p::RoutedPacket::parse(
                   BytesView(routed.data(), p2p::RoutedPacket::kHeaderBytes - 1))
                   .has_value());
  Bytes link = sample_link();
  EXPECT_FALSE(
      p2p::LinkFrame::parse(BytesView(link.data(), 30)).has_value());
  Bytes ip = sample_ip_packet();
  EXPECT_FALSE(
      ipop::IpPacket::parse(BytesView(ip.data(), 13)).has_value());
  Bytes seg = sample_segment();
  EXPECT_FALSE(
      vtcp::Segment::parse(BytesView(seg.data(), 16)).has_value());
}

/// A checksummed frame, its own parser, and the byte range [mut_begin,
/// mut_end) a forwarding hop rewrites in place (empty when none).
struct ChecksumCase {
  std::string name;
  Bytes frame;
  ParseFn parse;
  std::size_t mut_begin = 0;
  std::size_t mut_end = 0;
};

[[nodiscard]] std::vector<ChecksumCase> checksum_cases() {
  const ParseFn routed = [](BytesView b) {
    return p2p::RoutedPacket::parse(b).has_value();
  };
  std::vector<ChecksumCase> cases;
  // Payloads of 0..40 bytes put the end of the covered bytes at every
  // offset within XXH64's 32-byte stripe; 1400 bytes is a full datagram.
  for (std::size_t payload = 0; payload <= 40; ++payload) {
    std::string name = "routed/";
    cases.push_back({name.append(std::to_string(payload)),
                     routed_with_payload(payload), routed, 55,
                     p2p::RoutedPacket::kHeaderBytes});
  }
  cases.push_back({"routed/1400", routed_with_payload(1400), routed, 55,
                   p2p::RoutedPacket::kHeaderBytes});
  cases.push_back({"link", sample_link(),
                   [](BytesView b) {
                     return p2p::LinkFrame::parse(b).has_value();
                   }});
  cases.push_back({"relay", sample_relay(),
                   [](BytesView b) {
                     return p2p::RelayFrame::parse(b).has_value();
                   },
                   65, p2p::RelayFrame::kHeaderBytes});
  cases.push_back({"census", sample_census(), [](BytesView b) {
                     return p2p::CensusFrame::parse(b).has_value();
                   }});
  return cases;
}

/// The frame checksum is the guard that keeps bit-flipped addresses out
/// of connection tables: any single-bit corruption of a checksummed
/// byte must be rejected, while tampering with the in-flight-mutable
/// fields (routed ttl/hops/bounced/via and relay hops — rewritten by
/// every forwarding hop) must NOT invalidate the origin's checksum.
/// Truncation and zero-extension change the covered length, which the
/// hash mixes in, so both are rejected too.
TEST(ParseFuzz, ChecksumRejectsTamperedFrames) {
  for (const ChecksumCase& c : checksum_cases()) {
    ASSERT_TRUE(c.parse(c.frame)) << c.name;
    for (std::size_t byte = 0; byte < c.frame.size(); ++byte) {
      const bool hop_mutable = byte >= c.mut_begin && byte < c.mut_end;
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutant = c.frame;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_EQ(c.parse(mutant), hop_mutable)
            << c.name << " byte " << byte << " bit " << bit;
      }
    }
    for (std::size_t k = 1; k <= 8; ++k) {
      EXPECT_FALSE(c.parse(BytesView(c.frame.data(), c.frame.size() - k)))
          << c.name << " truncated by " << k;
      Bytes longer = c.frame;
      longer.resize(c.frame.size() + k, 0);
      EXPECT_FALSE(c.parse(longer)) << c.name << " zero-extended by " << k;
    }
  }

  Bytes relay = sample_relay();
  Bytes forwarded = relay;
  forwarded[65] += 1;  // the relay agent's in-place hop increment
  auto parsed = p2p::RelayFrame::parse(BytesView(forwarded));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->hops, 1);
  // A header-only relay frame (no tunneled payload) is nonsense.
  EXPECT_FALSE(
      p2p::RelayFrame::parse(
          BytesView(relay.data(), p2p::RelayFrame::kHeaderBytes))
          .has_value());
  // The inner payload of a valid tunnel parses as the wrapped link frame.
  EXPECT_TRUE(p2p::LinkFrame::parse(parsed->payload()).has_value());
}

/// Known answer: pins the algorithm (the low 32 bits of XXH64 over the
/// covered bytes, cross-checked against the reference xxHash library)
/// and its independence from host byte order.  The frame's 63 covered
/// bytes take one full stripe plus every tail step (8-, 4- and 1-byte).
TEST(ParseFuzz, ChecksumKnownAnswer) {
  const Bytes frame = routed_with_payload(12);
  ASSERT_EQ(frame.size(), p2p::RoutedPacket::kHeaderBytes + 12);
  EXPECT_EQ(p2p::frame_checksum(frame), 0x31910612u);
  // Stored big-endian right after the kind byte.
  const std::uint32_t stored = std::uint32_t{frame[1]} << 24 |
                               std::uint32_t{frame[2]} << 16 |
                               std::uint32_t{frame[3]} << 8 | frame[4];
  EXPECT_EQ(stored, p2p::frame_checksum(frame));
}

// ---------------------------------------------------------------------
// Checksum-valid adversarial mutations.  The frame checksum is an
// INTEGRITY check, not an authenticity check: any peer who can emit
// frames can compute it.  These tests mutate a checksummed field and
// then re-checksum through the production p2p::frame_checksum, and they
// pin down exactly what the parser can and cannot reject when the
// adversary does its homework (the byzantine defenses above the parser
// exist precisely for the "cannot" half).

/// Recompute and store the checksum the way the origin would.
void rechecksum(Bytes& f) {
  const std::uint32_t v = p2p::frame_checksum(f);
  f[1] = static_cast<std::uint8_t>(v >> 24);
  f[2] = static_cast<std::uint8_t>(v >> 16);
  f[3] = static_cast<std::uint8_t>(v >> 8);
  f[4] = static_cast<std::uint8_t>(v);
}

/// A re-checksummed identity forgery sails through every parser — the
/// parser's contract under a byzantine peer is structural validity only.
/// Anything the adversary rewrites coherently (addresses, tokens, relay
/// headers) MUST reach the protocol layer, whose defenses attribute and
/// reject it; asserting acceptance here keeps that boundary honest.
TEST(ParseFuzz, RechecksummedForgeryPassesTheParser) {
  // Routed frame with a rewritten source address.
  Bytes routed = sample_routed();
  routed[7] ^= 0xff;  // inside src (bytes 7..26)
  rechecksum(routed);
  auto p = p2p::RoutedPacket::parse(BytesView(routed));
  ASSERT_TRUE(p.has_value());
  EXPECT_NE(p->src, RingId{0x1111});  // the forgery went through

  // Link reply claiming a different sender identity.
  Bytes link = sample_link();
  link[11] ^= 0xa5;  // inside sender (bytes 11..30)
  rechecksum(link);
  auto lf = p2p::LinkFrame::parse(BytesView(link));
  ASSERT_TRUE(lf.has_value());
  EXPECT_NE(lf->sender, RingId{0x4444});

  // Relay frame with a forged source ring id — the wire form of the
  // adversary fabric's forged-relay attack.
  Bytes relay = sample_relay();
  relay[5] ^= 0x5a;  // inside src (bytes 5..24)
  rechecksum(relay);
  auto rf = p2p::RelayFrame::parse(BytesView(relay));
  ASSERT_TRUE(rf.has_value());
  EXPECT_NE(rf->src, RingId{0x8888});
}

/// Semantic validation is independent of the checksum: enum fields out
/// of range stay rejected even when the adversary re-checksums, and a
/// relay tunnel emptied of its payload is still nonsense.
TEST(ParseFuzz, RechecksummedFramesStillFaceSemanticChecks) {
  Bytes routed = sample_routed();
  routed[6] = 200;  // RoutedType out of range
  rechecksum(routed);
  EXPECT_FALSE(p2p::RoutedPacket::parse(BytesView(routed)).has_value());

  routed = sample_routed();
  routed[5] = 7;  // DeliveryMode out of range
  rechecksum(routed);
  EXPECT_FALSE(p2p::RoutedPacket::parse(BytesView(routed)).has_value());

  Bytes link = sample_link();
  link[5] = 0;  // LinkType zero is invalid
  rechecksum(link);
  EXPECT_FALSE(p2p::LinkFrame::parse(BytesView(link)).has_value());

  link = sample_link();
  link[6] = 99;  // ConnectionType out of range
  rechecksum(link);
  EXPECT_FALSE(p2p::LinkFrame::parse(BytesView(link)).has_value());

  // Header-only relay with a freshly valid header checksum: the empty
  // tunnel check fires before any payload checksum could matter.
  Bytes relay = sample_relay();
  relay.resize(p2p::RelayFrame::kHeaderBytes);
  rechecksum(relay);
  EXPECT_FALSE(p2p::RelayFrame::parse(BytesView(relay)).has_value());
}

/// Seeded storm of single-byte mutations, each re-checksummed so it
/// clears the integrity gate, through every parser.  Unlike the plain
/// bit-flip storm most of these are ACCEPTED — the assertion is that
/// structurally-valid-but-hostile frames never crash a parser, and that
/// each frame's own parser really does let a healthy share past the
/// checksum (if one did not, re-checksumming no longer matched what
/// that parser verifies).
TEST(ParseFuzz, RechecksummedMutationStormNeverCrashes) {
  std::mt19937_64 rng(20260808);
  struct Case {
    const char* parser;  // the frame's own entry in kParsers
    Bytes (*make)();
    std::size_t lo, hi;  // mutable checksummed region [lo, hi)
    int own_accepted = 0;
  };
  Case cases[] = {
      {"routed", &sample_routed, 5, 55},
      {"link", &sample_link, 5, 0},  // hi=0: to end of frame
      {"relay", &sample_relay, 5, 65},
  };
  constexpr int kRounds = 1500;
  for (int round = 0; round < kRounds; ++round) {
    Case& c = cases[round % 3];
    Bytes mutant = c.make();
    std::size_t hi = c.hi == 0 ? mutant.size() : c.hi;
    std::size_t byte = c.lo + rng() % (hi - c.lo);
    mutant[byte] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    rechecksum(mutant);
    for (const auto& [name, parse] : kParsers) {
      if (parse(mutant) && std::string_view(name) == c.parser) {
        ++c.own_accepted;
      }
    }
  }
  // Each parser sees 500 mutants and accepts 485 (routed), 449 (link)
  // and 500 (relay); with a stale re-checksum it would accept none.
  for (const Case& c : cases) {
    EXPECT_GT(c.own_accepted, kRounds / 3 / 2) << c.parser;
  }
}

// ---------------------------------------------------------------------
// Enum drift for the defense plane: the byzantine PR added flight kinds
// and a disconnect cause; reports must name them, and the names below
// are pinned so a reorder or rename shows up here instead of as silent
// "unknown" rows in a postmortem.

TEST(EnumDrift, DisconnectCauseNamesUniqueAndKnown) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(p2p::DisconnectCause::kCount); ++i) {
    const char* s = to_string(static_cast<p2p::DisconnectCause>(i));
    EXPECT_STRNE(s, "unknown") << "DisconnectCause " << i;
    EXPECT_TRUE(names.insert(s).second) << "duplicate name " << s;
  }
  EXPECT_STREQ(to_string(p2p::DisconnectCause::kCount), "unknown");
  EXPECT_STREQ(to_string(p2p::DisconnectCause::kMisbehavior), "misbehavior");
}

TEST(EnumDrift, DefenseFlightKindsAreNamed) {
  EXPECT_STREQ(to_string(FlightKind::kMisbehavior), "defense.misbehavior");
  EXPECT_STREQ(to_string(FlightKind::kRateShed), "defense.rate_shed");
  EXPECT_STREQ(to_string(FlightKind::kReplayHit), "defense.replay_hit");
  EXPECT_STREQ(to_string(FlightKind::kForgedRelay), "defense.forged_relay");
}

/// Seeded bit-flip storms over every frame type, every parser.  The
/// assertion is the absence of UB (this test runs under ASan/UBSan in
/// CI); acceptance may go either way since some flips land in payload
/// bytes no parser validates.
TEST(ParseFuzz, BitFlipsNeverCrashAnyParser) {
  std::mt19937_64 rng(20260806);
  const std::vector<Bytes> frames = sample_frames();
  for (int round = 0; round < 2000; ++round) {
    Bytes mutant = frames[round % frames.size()];
    int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      std::size_t bit = rng() % (mutant.size() * 8);
      mutant[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    }
    for (const auto& [name, parse] : kParsers) {
      (void)parse(mutant);
    }
  }
}

/// Unstructured garbage of every small length.
TEST(ParseFuzz, RandomGarbageNeverCrashesAnyParser) {
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng() % 160);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    for (const auto& [name, parse] : kParsers) {
      (void)parse(garbage);
    }
  }
}

/// End-to-end: a running overlay under heavy in-flight corruption keeps
/// running (no crash, no UB) and visibly counts parser rejections in
/// the node_parse_rejects metrics.
TEST(ParseFuzz, OverlaySurvivesWireCorruption) {
  testing::PublicOverlay net(8, /*seed=*/5);
  net.start_all();
  net.sim.run_until(2 * kMinute);
  ASSERT_EQ(net.routable_count(), 8);

  net::FaultSpec corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.at = net.sim.now();
  corrupt.duration = 2 * kMinute;
  corrupt.rate = 0.8;
  net.network.faults().inject(corrupt);

  for (int burst = 0; burst < 20; ++burst) {
    for (std::size_t i = 0; i < net.nodes.size(); ++i) {
      std::size_t peer =
          (i + 1 + static_cast<std::size_t>(burst)) % net.nodes.size();
      if (peer == i) continue;
      net.nodes[i]->send_data(net.nodes[peer]->address(),
                              Bytes{0xde, 0xad, 0xbe, 0xef});
    }
    net.sim.run_for(5 * kSecond);
  }
  net.sim.run_for(3 * kMinute);

  const auto& fs = net.network.faults().stats();
  EXPECT_GT(fs.corrupted_delivered, 0u);
  EXPECT_GT(fs.corrupted_dropped, 0u);

  std::uint64_t rejects = 0;
  for (const auto& n : net.nodes) rejects += n->stats().parse_rejects;
  EXPECT_GT(rejects, 0u);
  // ...and the registry's per-node samples sum to the same count.
  std::uint64_t exported = 0;
  std::size_t samples = 0;
  for (const auto& s : net.sim.metrics().snapshot()) {
    if (s.name == "node_parse_rejects") {
      ++samples;
      exported += static_cast<std::uint64_t>(s.value);
    }
  }
  EXPECT_EQ(samples, net.nodes.size());
  EXPECT_EQ(exported, rejects);
}

// --- text parsers (URI / dotted quad) -----------------------------------

/// The strict Uri grammar: accepted spellings are exactly the canonical
/// ones, and parse/to_string round-trip both ways.
TEST(ParseFuzz, UriAcceptsOnlyCanonicalSpellings) {
  auto ok = [](std::string_view s) {
    return transport::Uri::parse(s).has_value();
  };
  EXPECT_TRUE(ok("brunet.udp://192.0.1.1:1024"));
  EXPECT_TRUE(ok("brunet.tcp://10.0.0.1:1"));
  EXPECT_TRUE(ok("brunet.udp://255.255.255.255:65535"));
  EXPECT_TRUE(ok("brunet.udp://0.0.0.0:17001"));

  // Garbage shapes.
  EXPECT_FALSE(ok(""));
  EXPECT_FALSE(ok("brunet.udp://"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4"));       // no port
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:"));      // empty port
  EXPECT_FALSE(ok("udp://1.2.3.4:80"));           // unknown scheme
  EXPECT_FALSE(ok("brunet.sctp://1.2.3.4:80"));
  EXPECT_FALSE(ok("brunet.udp:/1.2.3.4:80"));     // malformed separator
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:80 "));   // trailing junk
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:80x"));

  // Out-of-range / non-canonical ports.
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:0"));      // port 0 names nothing
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:65536"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:99999"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:123456"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:017001"));  // leading zero
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:00"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:-1"));

  // Non-canonical / hostile dotted quads.
  EXPECT_FALSE(ok("brunet.udp://1.2.3:80"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4.5:80"));
  EXPECT_FALSE(ok("brunet.udp://256.0.0.1:80"));
  EXPECT_FALSE(ok("brunet.udp://010.0.0.1:80"));   // octal-ambiguous
  EXPECT_FALSE(ok("brunet.udp://1.2.3.0004:80"));
  EXPECT_FALSE(ok("brunet.udp://.1.2.3.4:80"));
  EXPECT_FALSE(ok("brunet.udp://1..2.3:80"));
  EXPECT_FALSE(ok("brunet.udp://example.com:80"));  // no DNS in URIs

  // IPv6 literals are recognized and deliberately rejected: the wire
  // format carries endpoints as u32 IPv4 (write_uri), so accepting
  // them here would create un-advertisable, un-routable endpoints.
  EXPECT_FALSE(ok("brunet.udp://[::1]:17001"));
  EXPECT_FALSE(ok("brunet.udp://[2001:db8::1]:17001"));
  EXPECT_FALSE(ok("brunet.udp://::1:17001"));
}

TEST(ParseFuzz, UriRoundTripsBothWays) {
  std::mt19937_64 rng(7777);
  for (int round = 0; round < 2000; ++round) {
    transport::Uri uri;
    uri.kind = (rng() & 1) != 0 ? transport::TransportKind::kUdp
                                : transport::TransportKind::kTcp;
    uri.endpoint.ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    uri.endpoint.port = static_cast<std::uint16_t>(1 + rng() % 65535);
    auto back = transport::Uri::parse(uri.to_string());
    ASSERT_TRUE(back.has_value()) << uri.to_string();
    EXPECT_EQ(*back, uri);
  }
}

TEST(ParseFuzz, UriTextMutationsNeverCrash) {
  // Character-level mutations of a valid URI: every outcome is either
  // nullopt or a URI that re-serializes canonically — never UB.
  std::mt19937_64 rng(31337);
  const std::string seed_text = "brunet.udp://192.168.1.17:17001";
  for (int round = 0; round < 4000; ++round) {
    std::string mutant = seed_text;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      std::size_t at = rng() % mutant.size();
      switch (rng() % 3) {
        case 0: mutant[at] = static_cast<char>(rng() % 256); break;
        case 1: mutant.erase(at, 1); break;
        default:
          mutant.insert(at, 1, static_cast<char>('0' + rng() % 10));
      }
      if (mutant.empty()) break;
    }
    auto parsed = transport::Uri::parse(mutant);
    if (parsed) {
      auto again = transport::Uri::parse(parsed->to_string());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *parsed);
    }
  }
}

TEST(ParseFuzz, Ipv4StrictGrammar) {
  auto ip = [](std::string_view s) { return net::Ipv4Addr::parse(s); };
  ASSERT_TRUE(ip("10.128.0.1").has_value());
  EXPECT_EQ(ip("10.128.0.1")->to_string(), "10.128.0.1");
  EXPECT_TRUE(ip("0.0.0.0").has_value());
  EXPECT_TRUE(ip("255.255.255.255").has_value());

  EXPECT_FALSE(ip("").has_value());
  EXPECT_FALSE(ip("1.2.3").has_value());
  EXPECT_FALSE(ip("1.2.3.4.5").has_value());
  EXPECT_FALSE(ip("1.2.3.256").has_value());
  EXPECT_FALSE(ip("01.2.3.4").has_value());     // leading zero
  EXPECT_FALSE(ip("1.2.3.04").has_value());
  EXPECT_FALSE(ip("0001.2.3.4").has_value());   // >3 digits
  EXPECT_FALSE(ip("1.2.3.4 ").has_value());
  EXPECT_FALSE(ip(" 1.2.3.4").has_value());
  EXPECT_FALSE(ip("1.2.3.a").has_value());
  EXPECT_FALSE(ip("1,2,3,4").has_value());
  EXPECT_FALSE(ip("::1").has_value());
}

}  // namespace
}  // namespace wow
