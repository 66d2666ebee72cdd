#include <gtest/gtest.h>

#include <numeric>

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
  Segment s;
  s.src_port = 1111;
  s.dst_port = 2222;
  s.seq = 0xdeadbeef;
  s.ack = 0xcafebabe;
  s.flags = kSyn | kAck;
  s.window = 65536;
  s.payload = Bytes{1, 2, 3, 4};
  auto t = Segment::parse(s.serialize());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->src_port, s.src_port);
  EXPECT_EQ(t->dst_port, s.dst_port);
  EXPECT_EQ(t->seq, s.seq);
  EXPECT_EQ(t->ack, s.ack);
  EXPECT_EQ(t->flags, s.flags);
  EXPECT_EQ(t->window, s.window);
  EXPECT_EQ(t->payload, s.payload);
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
  ipop::IpPacket packet;
  packet.dst = net.vip(1);
  packet.proto = ipop::IpProto::kTcp;
  packet.payload = Bytes{1, 2, 3};
  net.nodes[0]->send_ip(std::move(packet));
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
