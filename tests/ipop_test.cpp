#include <gtest/gtest.h>

#include "ipop/icmp_service.h"
#include "ipop/ip_packet.h"
#include "ipop/ipop_node.h"
#include "test_util.h"

namespace wow::ipop {
namespace {

using testing::IpopOverlay;

TEST(IpPacketWire, RoundTrip) {
  // Payloads are views: the bytes they see live in named buffers.
  const Bytes body{5, 6, 7};
  IpPacket p;
  p.src = net::Ipv4Addr(172, 16, 1, 2);
  p.dst = net::Ipv4Addr(172, 16, 1, 3);
  p.proto = IpProto::kTcp;
  p.ttl = 61;
  p.id = 999;
  p.payload = body;
  const Bytes frame = p.serialize();
  auto q = IpPacket::parse(frame);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->src, p.src);
  EXPECT_EQ(q->dst, p.dst);
  EXPECT_EQ(q->proto, p.proto);
  EXPECT_EQ(q->ttl, p.ttl);
  EXPECT_EQ(q->id, p.id);
  EXPECT_EQ(Bytes(q->payload.begin(), q->payload.end()), body);
}

TEST(IpPacketWire, ParsedPayloadIsViewIntoFrame) {
  const Bytes body{9, 8, 7, 6};
  IpPacket p;
  p.proto = IpProto::kUdp;
  p.payload = body;
  const Bytes frame = p.serialize();
  auto q = IpPacket::parse(frame);
  ASSERT_TRUE(q.has_value());
  // Zero-copy: the payload aliases the delivered frame.
  EXPECT_EQ(q->payload.data(), frame.data() + IpPacket::kHeaderBytes);
  EXPECT_EQ(q->payload.size(), body.size());
}

TEST(IpPacketWire, OversizePayloadIsRefusedNotTruncated) {
  // At the u16 length field's ceiling the packet still round-trips.
  const Bytes max(ByteWriter::kMaxLenPrefixed, 0xab);
  IpPacket p;
  p.payload = max;
  const Bytes frame = p.serialize();
  auto q = IpPacket::parse(frame);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->payload.size(), max.size());
  // One byte past it is refused, never framed with a wrapped length.
  const Bytes over(ByteWriter::kMaxLenPrefixed + 1, 0xcd);
  p.payload = over;
  EXPECT_TRUE(p.serialize().empty());
  FrameBuf pending(IpPacket::kHeadroom, over);
  EXPECT_FALSE(p.push_header(pending));
  EXPECT_EQ(pending.headroom(), IpPacket::kHeadroom);
}

TEST(IpPacketWire, RejectsBadProtocolAndTruncation) {
  const Bytes body{1, 2, 3};
  IpPacket p;
  p.payload = body;
  auto frame = p.serialize();
  frame[0] = 99;  // bogus protocol
  EXPECT_FALSE(IpPacket::parse(frame).has_value());

  auto frame2 = p.serialize();
  frame2.resize(frame2.size() - 2);  // payload shorter than declared
  EXPECT_FALSE(IpPacket::parse(frame2).has_value());
}

TEST(IcmpWire, RoundTrip) {
  IcmpEcho e;
  e.type = IcmpEcho::kEchoReply;
  e.ident = 7;
  e.seq = 120;
  e.timestamp = 123456789;
  e.padding = 56;
  auto out = e.serialize();
  EXPECT_EQ(out.size(), 16u + 56u);  // header + padding bytes on the wire
  auto f = IcmpEcho::parse(out);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->ident, e.ident);
  EXPECT_EQ(f->seq, e.seq);
  EXPECT_EQ(f->timestamp, e.timestamp);
}

TEST(VipResolution, DeterministicAndDistinct) {
  auto a1 = address_for_vip(net::Ipv4Addr(172, 16, 1, 2));
  auto a2 = address_for_vip(net::Ipv4Addr(172, 16, 1, 2));
  auto b = address_for_vip(net::Ipv4Addr(172, 16, 1, 3));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(a1, p2p::Address{});
}

TEST(IpopTunnel, PingAcrossOverlay) {
  IpopOverlay net(4);
  net.start_all();
  net.sim.run_until(kMinute);

  IcmpService icmp0(*net.nodes[0]);
  IcmpService icmp2(*net.nodes[2]);

  int replies = 0;
  SimDuration last_rtt = 0;
  icmp0.set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                              std::uint16_t, SimDuration rtt) {
    EXPECT_EQ(from, net.vip(2));
    ++replies;
    last_rtt = rtt;
  });

  icmp0.ping(net.vip(2), 1, 1);
  net.sim.run_for(10 * kSecond);
  EXPECT_EQ(replies, 1);
  EXPECT_GT(last_rtt, 0);
}

TEST(IpopTunnel, LoopbackPing) {
  IpopOverlay net(2);
  net.start_all();
  net.sim.run_until(30 * kSecond);

  IcmpService icmp(*net.nodes[0]);
  int replies = 0;
  icmp.set_reply_handler([&](net::Ipv4Addr, std::uint16_t, std::uint16_t,
                             SimDuration) { ++replies; });
  icmp.ping(net.vip(0), 1, 1);
  net.sim.run_for(kSecond);
  EXPECT_EQ(replies, 1);
}

TEST(IpopTunnel, UnknownVipIsDropped) {
  IpopOverlay net(3);
  net.start_all();
  net.sim.run_until(kMinute);

  IcmpService icmp(*net.nodes[0]);
  int replies = 0;
  icmp.set_reply_handler([&](net::Ipv4Addr, std::uint16_t, std::uint16_t,
                             SimDuration) { ++replies; });
  icmp.ping(net::Ipv4Addr(172, 16, 1, 200), 1, 1);  // nobody owns this
  net.sim.run_for(10 * kSecond);
  EXPECT_EQ(replies, 0);
}

TEST(IpopTunnel, PacketsDroppedWhileSenderNotJoined) {
  IpopOverlay net(3);
  // Start everyone but node 0.
  net.router->start();
  net.nodes[1]->start();
  net.nodes[2]->start();
  net.sim.run_until(kMinute);

  IcmpService icmp0(*net.nodes[0]);
  IcmpService icmp1(*net.nodes[1]);
  (void)icmp1;  // its constructor installs the echo responder

  int replies = 0;
  icmp0.set_reply_handler([&](net::Ipv4Addr, std::uint16_t, std::uint16_t,
                              SimDuration) { ++replies; });

  // Node 0's IPOP is down: sends vanish (regime 1 of Fig. 5).
  icmp0.ping(net.vip(1), 1, 1);
  net.sim.run_for(5 * kSecond);
  EXPECT_EQ(replies, 0);

  // Bring node 0 up; once routable, pings succeed.
  net.nodes[0]->start();
  net.sim.run_for(kMinute);
  icmp0.ping(net.vip(1), 1, 2);
  net.sim.run_for(10 * kSecond);
  EXPECT_EQ(replies, 1);
}

TEST(IpopTunnel, StatsCountTunnelledPackets) {
  IpopOverlay net(2);
  net.start_all();
  net.sim.run_until(kMinute);
  IcmpService icmp0(*net.nodes[0]);
  IcmpService icmp1(*net.nodes[1]);
  (void)icmp1;
  icmp0.ping(net.vip(1), 1, 1);
  net.sim.run_for(5 * kSecond);
  EXPECT_GE(net.nodes[0]->stats().sent, 1u);
  EXPECT_GE(net.nodes[1]->stats().received, 1u);
  EXPECT_GE(net.nodes[0]->stats().received, 1u);  // the reply

  // Tunnelled bytes that are no IP packet: counted, and exported as
  // the receiving node's ipop_parse_rejects.
  IpopNode& dst = *net.nodes[1];
  auto exported = [&] {
    return testing::sample_value(net.sim.metrics(), "ipop_parse_rejects",
                                 dst.p2p().brief());
  };
  std::uint64_t rejects = dst.stats().parse_rejects;
  double exported_before = exported();
  net.nodes[0]->p2p().send_data(dst.p2p().address(), Bytes{0xde, 0xad});
  net.sim.run_for(5 * kSecond);
  EXPECT_EQ(dst.stats().parse_rejects, rejects + 1);
  EXPECT_EQ(exported(), exported_before + 1);
  EXPECT_EQ(exported(), static_cast<double>(dst.stats().parse_rejects));
}

}  // namespace
}  // namespace wow::ipop
