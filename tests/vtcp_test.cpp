#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>

#include "test_util.h"
#include "vtcp/tcp.h"

namespace wow::vtcp {
namespace {

using testing::IpopOverlay;

/// Fixture: a 3-node IPOP cluster with TCP stacks on nodes 0 and 1,
/// pre-warmed so the overlay ring exists before any test traffic.
class VtcpTest : public ::testing::Test {
 protected:
  VtcpTest() : net(3) {
    net.start_all();
    net.sim.run_until(kMinute);
    stack0 = std::make_unique<TcpStack>(net.sim, *net.nodes[0]);
    stack1 = std::make_unique<TcpStack>(net.sim, *net.nodes[1]);
  }

  IpopOverlay net;
  std::unique_ptr<TcpStack> stack0;
  std::unique_ptr<TcpStack> stack1;
};

TEST(SegmentWire, RoundTrip) {
  // Payloads are views: the bytes they see live in named buffers.
  const Bytes body{1, 2, 3, 4};
  Segment s;
  s.src_port = 1111;
  s.dst_port = 2222;
  s.seq = 0xdeadbeef;
  s.ack = 0xcafebabe;
  s.flags = kSyn | kAck;
  s.window = 65536;
  s.payload = body;
  const Bytes frame = s.serialize();
  auto t = Segment::parse(frame);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->src_port, s.src_port);
  EXPECT_EQ(t->dst_port, s.dst_port);
  EXPECT_EQ(t->seq, s.seq);
  EXPECT_EQ(t->ack, s.ack);
  EXPECT_EQ(t->flags, s.flags);
  EXPECT_EQ(t->window, s.window);
  EXPECT_EQ(Bytes(t->payload.begin(), t->payload.end()), body);
}

TEST(SegmentWire, ParsedPayloadIsViewIntoFrame) {
  const Bytes body{4, 3, 2, 1, 0};
  Segment s;
  s.flags = kAck;
  s.payload = body;
  const Bytes frame = s.serialize();
  auto t = Segment::parse(frame);
  ASSERT_TRUE(t.has_value());
  // Zero-copy: the payload aliases the delivered frame.
  EXPECT_EQ(t->payload.data(), frame.data() + Segment::kHeaderBytes);
  EXPECT_EQ(t->payload.size(), body.size());
}

TEST(SegmentWire, OversizePayloadIsRefusedNotTruncated) {
  // At the u16 length field's ceiling the segment still round-trips.
  const Bytes max(ByteWriter::kMaxLenPrefixed, 0xab);
  Segment s;
  s.payload = max;
  const Bytes frame = s.serialize();
  auto t = Segment::parse(frame);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->payload.size(), max.size());
  // One byte past it is refused, never framed with a wrapped length.
  const Bytes over(ByteWriter::kMaxLenPrefixed + 1, 0xcd);
  s.payload = over;
  EXPECT_TRUE(s.serialize().empty());
  FrameBuf pending(Segment::kHeadroom, over);
  EXPECT_FALSE(s.push_header(pending));
  EXPECT_EQ(pending.headroom(), Segment::kHeadroom);
}

[[nodiscard]] Bytes bytes_from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The frame the send path builds for `seg` from `src` to `dst`: the
/// payload copied once behind Segment::kHeadroom, then the segment, IP
/// and routed headers written in front of it in place, as
/// TcpStack::send_segment, IpopNode::send_ip and Node::send_data do.
/// The routed fields are those of a first hop.
[[nodiscard]] SharedBytes build_frame(const Segment& seg, net::Ipv4Addr src,
                                      net::Ipv4Addr dst) {
  FrameBuf frame(Segment::kHeadroom, seg.payload);
  const std::uint8_t* payload_at = frame.view().data();
  EXPECT_TRUE(seg.push_header(frame));
  ipop::IpPacket ip;
  ip.src = src;
  ip.dst = dst;
  ip.proto = ipop::IpProto::kTcp;
  EXPECT_TRUE(ip.push_header(frame));
  EXPECT_EQ(frame.headroom(), p2p::RoutedPacket::kHeaderBytes);
  p2p::RoutedPacket routed;
  routed.src = ipop::address_for_vip(src);
  routed.dst = ipop::address_for_vip(dst);
  routed.ttl = p2p::RoutedPacket::kOriginTtl - 1;
  routed.hops = 1;
  routed.trace_id = 0x2a;
  routed.set_frame(std::move(frame));
  SharedBytes wire = routed.wire();
  // One buffer: the payload never moved while the headers went on.
  EXPECT_EQ(wire.data() + Segment::kHeadroom, payload_at);
  return wire;
}

/// Wire bytes pinned from the serializer chain that headroom framing
/// replaced (Segment, IpPacket and RoutedPacket each serializing a
/// fresh buffer): a wowd built either way reads the other's frames.
TEST(FrameKnownAnswer, DataSegmentMatchesPinnedBytes) {
  Bytes payload(1400);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Segment seg;
  seg.src_port = 40000;
  seg.dst_port = 80;
  seg.seq = 1;
  seg.ack = 1;
  seg.flags = kAck;
  seg.window = 256 * 1024;
  seg.payload = payload;
  SharedBytes frame = build_frame(seg, net::Ipv4Addr(172, 16, 1, 2),
                                  net::Ipv4Addr(172, 16, 1, 3));
  ASSERT_EQ(frame.size(), Segment::kHeadroom + payload.size());
  // The headers, checksum included, pin the payload too: the checksum
  // covers it.
  const Bytes headers = bytes_from_hex(
      "014ef0be2b01012d953133316d2f582a2509eb4e14f8baa2f94143efbf38cd62"
      "5935ec4ae8936db9a6c986c80adfc7000000000000002a2f0100000000000000"
      "000000000000000000000000000006400000ac100102ac100103058b9c400050"
      "000000010000000102000400000578");
  ASSERT_EQ(headers.size(), Segment::kHeadroom);
  BytesView wire = frame.view();
  EXPECT_EQ(Bytes(wire.begin(), wire.begin() + Segment::kHeadroom), headers);
  EXPECT_EQ(Bytes(wire.begin() + Segment::kHeadroom, wire.end()), payload);
}

TEST(FrameKnownAnswer, PureAckMatchesPinnedBytes) {
  Segment ack;
  ack.src_port = 80;
  ack.dst_port = 40000;
  ack.seq = 1;
  ack.ack = 1401;
  ack.flags = kAck;
  ack.window = 256 * 1024;
  SharedBytes frame = build_frame(ack, net::Ipv4Addr(172, 16, 1, 3),
                                  net::Ipv4Addr(172, 16, 1, 2));
  const Bytes pinned = bytes_from_hex(
      "01d003803b0101efbf38cd625935ec4ae8936db9a6c986c80adfc72d95313331"
      "6d2f582a2509eb4e14f8baa2f94143000000000000002a2f0100000000000000"
      "000000000000000000000000000006400000ac100103ac100102001300509c40"
      "000000010000057902000400000000");
  EXPECT_EQ(frame.to_bytes(), pinned);
}

/// An IP payload too short to be a segment is counted by the receiving
/// stack and exported as its vtcp_parse_rejects.
TEST_F(VtcpTest, MalformedSegmentCountsAParseReject) {
  auto exported = [&] {
    return testing::sample_value(net.sim.metrics(), "vtcp_parse_rejects",
                                 net.nodes[1]->p2p().brief());
  };
  std::uint64_t rejects = stack1->parse_rejects();
  double exported_before = exported();
  const Bytes body{1, 2, 3};
  ipop::IpPacket packet;
  packet.dst = net.vip(1);
  packet.proto = ipop::IpProto::kTcp;
  packet.payload = body;
  net.nodes[0]->send_ip(packet);
  net.sim.run_for(5 * kSecond);
  EXPECT_EQ(stack1->parse_rejects(), rejects + 1);
  EXPECT_EQ(exported(), exported_before + 1);
}

TEST_F(VtcpTest, HandshakeEstablishesBothEnds) {
  std::shared_ptr<TcpSocket> server;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) { server = s; });

  bool client_up = false;
  auto client = stack0->connect(net.vip(1), 80);
  client->set_established_handler([&] { client_up = true; });

  net.sim.run_for(10 * kSecond);
  EXPECT_TRUE(client_up);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->state(), TcpSocket::State::kEstablished);
  EXPECT_EQ(client->state(), TcpSocket::State::kEstablished);
}

TEST_F(VtcpTest, ConnectToClosedPortIsRefused) {
  bool error = false;
  auto client = stack0->connect(net.vip(1), 81);
  client->set_closed_handler([&](bool err) { error = err; });
  net.sim.run_for(10 * kSecond);
  EXPECT_TRUE(error);
  EXPECT_EQ(client->state(), TcpSocket::State::kClosed);
}

TEST_F(VtcpTest, SmallMessageRoundTrip) {
  Bytes received;
  // The test owns accepted sockets; a handler capturing its own socket
  // by shared_ptr would be a reference cycle that never frees.
  std::vector<std::shared_ptr<TcpSocket>> accepted;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([&received, sock = s.get()](const Bytes& data) {
      received.insert(received.end(), data.begin(), data.end());
      sock->send(Bytes{'o', 'k'});
    });
    accepted.push_back(std::move(s));
  });

  Bytes reply;
  auto client = stack0->connect(net.vip(1), 80);
  client->set_data_handler([&](const Bytes& data) {
    reply.insert(reply.end(), data.begin(), data.end());
  });
  client->set_established_handler([&] {
    client->send(Bytes{'h', 'i'});
  });

  net.sim.run_for(20 * kSecond);
  EXPECT_EQ(received, (Bytes{'h', 'i'}));
  EXPECT_EQ(reply, (Bytes{'o', 'k'}));
}

TEST_F(VtcpTest, BulkTransferDeliversEveryByteInOrder) {
  // 2 MB transfer with pattern verification.
  constexpr std::size_t kTotal = 2 * 1024 * 1024;
  std::size_t got = 0;
  bool corrupt = false;
  bool server_eof = false;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([&](const Bytes& data) {
      for (std::uint8_t b : data) {
        if (b != static_cast<std::uint8_t>(got * 131 % 251)) corrupt = true;
        ++got;
      }
    });
    s->set_closed_handler([&](bool) { server_eof = true; });
  });

  auto client = stack0->connect(net.vip(1), 80);
  std::size_t queued = 0;
  auto feed = [&] {
    while (queued < kTotal && client->send_buffer_room() > 0) {
      std::size_t n = std::min<std::size_t>(client->send_buffer_room(),
                                            std::min<std::size_t>(
                                                kTotal - queued, 16384));
      Bytes chunk(n);
      for (std::size_t i = 0; i < n; ++i) {
        chunk[i] = static_cast<std::uint8_t>((queued + i) * 131 % 251);
      }
      client->send(std::move(chunk));
      queued += n;
    }
    if (queued >= kTotal) client->close();
  };
  client->set_established_handler(feed);
  client->set_writable_handler(feed);

  net.sim.run_for(5 * kMinute);
  EXPECT_EQ(got, kTotal);
  EXPECT_FALSE(corrupt);
  EXPECT_TRUE(server_eof);
}

TEST_F(VtcpTest, SurvivesPacketLoss) {
  // Introduce 3% loss on the same-site path.
  net.network.set_same_site(net::LinkModel{1 * kMillisecond,
                                           100 * kMicrosecond, 0.03});
  constexpr std::size_t kTotal = 256 * 1024;
  std::size_t got = 0;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([&](const Bytes& data) { got += data.size(); });
  });

  auto client = stack0->connect(net.vip(1), 80);
  std::size_t queued = 0;
  auto feed = [&] {
    while (queued < kTotal && client->send_buffer_room() > 0) {
      std::size_t n =
          std::min<std::size_t>(client->send_buffer_room(),
                                std::min<std::size_t>(kTotal - queued, 8192));
      client->send(Bytes(n, 0x42));
      queued += n;
    }
  };
  client->set_established_handler(feed);
  client->set_writable_handler(feed);

  net.sim.run_for(10 * kMinute);
  EXPECT_EQ(got, kTotal);
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_F(VtcpTest, TransferStallsDuringOutageAndResumes) {
  // The §V-C behaviour: the server's IPOP dies mid-transfer and comes
  // back; TCP retransmission rides out the outage and the stream
  // completes with no application action.
  constexpr std::size_t kTotal = 48 * 1024 * 1024;
  std::size_t got = 0;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([&](const Bytes& data) { got += data.size(); });
  });

  auto client = stack0->connect(net.vip(1), 80);
  std::size_t queued = 0;
  auto feed = [&] {
    while (queued < kTotal && client->send_buffer_room() > 0) {
      std::size_t n =
          std::min<std::size_t>(client->send_buffer_room(),
                                std::min<std::size_t>(kTotal - queued, 8192));
      client->send(Bytes(n, 0x55));
      queued += n;
    }
  };
  client->set_established_handler(feed);
  client->set_writable_handler(feed);

  net.sim.run_for(1 * kSecond);
  std::size_t before_outage = got;
  EXPECT_GT(before_outage, 0u);
  EXPECT_LT(before_outage, kTotal);

  // Kill the receiving node's IPOP process for a while.
  net.nodes[1]->stop();
  net.sim.run_for(30 * kSecond);
  std::size_t during = got;
  net.nodes[1]->restart();
  net.sim.run_for(5 * kMinute);

  EXPECT_EQ(got, kTotal) << "transfer did not resume after restart";
  EXPECT_GE(got, during);
  EXPECT_GT(client->stats().timeouts, 0u);
}

TEST_F(VtcpTest, CloseHandshakeReachesBothSides) {
  bool server_closed = false;
  bool client_closed = false;
  std::shared_ptr<TcpSocket> server;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    server = s;
    s->set_closed_handler([&](bool err) {
      EXPECT_FALSE(err);
      server_closed = true;
    });
  });
  auto client = stack0->connect(net.vip(1), 80);
  client->set_closed_handler([&](bool) { client_closed = true; });
  client->set_established_handler([&] {
    client->send(Bytes{'x'});
    client->close();
  });
  net.sim.run_for(30 * kSecond);
  EXPECT_TRUE(server_closed);
}

TEST_F(VtcpTest, ResetTearsDownPeer) {
  std::shared_ptr<TcpSocket> server;
  bool server_error = false;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    server = s;
    s->set_closed_handler([&](bool err) { server_error = err; });
  });
  auto client = stack0->connect(net.vip(1), 80);
  client->set_established_handler([&] { client->reset(); });
  net.sim.run_for(10 * kSecond);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server_error);
  EXPECT_EQ(server->state(), TcpSocket::State::kClosed);
}

TEST_F(VtcpTest, ManyConcurrentConnections) {
  int established = 0;
  int completed = 0;
  std::vector<std::shared_ptr<TcpSocket>> accepted;
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([sock = s.get()](const Bytes& data) {
      sock->send(data);
    });
    accepted.push_back(std::move(s));
  });
  std::vector<std::shared_ptr<TcpSocket>> clients;
  for (int i = 0; i < 20; ++i) {
    auto c = stack0->connect(net.vip(1), 80);
    c->set_established_handler([&established, sock = c.get(), i] {
      ++established;
      sock->send(Bytes(static_cast<std::size_t>(i + 1), 0x11));
    });
    c->set_data_handler([&completed, i, got = std::size_t{0}](
                            const Bytes& data) mutable {
      got += data.size();
      if (got == static_cast<std::size_t>(i + 1)) ++completed;
    });
    clients.push_back(std::move(c));
  }
  net.sim.run_for(kMinute);
  EXPECT_EQ(established, 20);
  EXPECT_EQ(completed, 20);
}

TEST_F(VtcpTest, RttEstimateConvergesNearPathRtt) {
  stack1->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    s->set_data_handler([](const Bytes&) {});
  });
  auto client = stack0->connect(net.vip(1), 80);
  std::size_t sent = 0;
  auto feed = [&] {
    if (sent < 512 * 1024 && client->send_buffer_room() > 0) {
      client->send(Bytes(8192, 1));
      sent += 8192;
    }
  };
  client->set_established_handler(feed);
  client->set_writable_handler(feed);
  net.sim.run_for(2 * kMinute);
  // Path RTT is a few ms (same site, via overlay); RTO should have come
  // down from the 1 s initial value.
  EXPECT_LT(client->current_rto_seconds(), 1.0);
}

}  // namespace
}  // namespace wow::vtcp
