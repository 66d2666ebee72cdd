// The real-clock backend end to end: UdpEdgeFactory over genuine
// 127.0.0.1 sockets, driven by RealtimeEventLoop.  The headline test
// brings up two p2p::Nodes over real UDP inside one process — the same
// stack the wowd daemon runs, minus the process boundary.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "p2p/node.h"
#include "transport/realtime.h"
#include "transport/udp_edge.h"
#include "test_util.h"

namespace wow {
namespace {

const net::Ipv4Addr kLocalhost(127, 0, 0, 1);

/// Drive the loop in small slices until `done` holds or `cap` of real
/// time elapses.  Returns whether the condition was met.
template <typename Pred>
bool drive_until(transport::RealtimeEventLoop& loop, Pred done,
                 SimDuration cap = 5 * kSecond) {
  SimTime deadline = loop.now() + cap;
  while (!done() && loop.now() < deadline) {
    loop.run_for(10 * kMillisecond);
  }
  return done();
}

TEST(UdpEdgeFactory, DatagramsFlowBothWays) {
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory a(loop, kLocalhost);
  transport::UdpEdgeFactory b(loop, kLocalhost);
  a.bind(0);  // ephemeral; the chosen port shows up in local_uri()
  b.bind(0);
  ASSERT_TRUE(a.is_open());
  ASSERT_TRUE(b.is_open());
  ASSERT_NE(a.local_uri().endpoint.port, 0);
  ASSERT_NE(a.local_uri().endpoint.port, b.local_uri().endpoint.port);

  std::vector<Bytes> at_b;
  net::Endpoint b_saw_src;
  b.set_receiver([&](const net::Endpoint& src, SharedBytes payload) {
    b_saw_src = src;
    at_b.push_back(payload.to_bytes());
  });
  std::vector<Bytes> at_a;
  a.set_receiver([&](const net::Endpoint&, SharedBytes payload) {
    at_a.push_back(payload.to_bytes());
  });

  net::Endpoint to_b{kLocalhost, b.local_uri().endpoint.port};
  net::Endpoint to_a{kLocalhost, a.local_uri().endpoint.port};
  a.send_to(to_b, Bytes{1, 2, 3});
  b.send_to(to_a, Bytes{9, 8});

  ASSERT_TRUE(drive_until(loop, [&] {
    return !at_a.empty() && !at_b.empty();
  }));
  EXPECT_EQ(at_b[0], (Bytes{1, 2, 3}));
  EXPECT_EQ(at_a[0], (Bytes{9, 8}));
  // The receiver sees the sender's real bound endpoint (what NAT
  // traversal's learn_public_uri depends on).
  EXPECT_EQ(b_saw_src, to_a);
  EXPECT_GE(a.stats().datagrams_sent, 1u);
  EXPECT_GE(b.stats().datagrams_received, 1u);
}

TEST(UdpEdgeFactory, TakenPortIsNotShared) {
  // A second socket on a bound port must fail to bind rather than
  // silently split the port's unicast traffic with the first.
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory a(loop, kLocalhost);
  a.bind(0);
  ASSERT_TRUE(a.is_open());
  const std::uint16_t port = a.local_uri().endpoint.port;

  transport::UdpEdgeFactory b(loop, kLocalhost);
  b.bind(port);
  EXPECT_FALSE(b.is_open());

  // The first socket still owns the port and hears its traffic.
  transport::UdpEdgeFactory c(loop, kLocalhost);
  c.bind(0);
  std::size_t got = 0;
  a.set_receiver([&](const net::Endpoint&, SharedBytes) { ++got; });
  c.send_to(net::Endpoint{kLocalhost, port}, Bytes{7});
  EXPECT_TRUE(drive_until(loop, [&] { return got == 1; }));
}

TEST(UdpEdgeFactory, SendBatchLeavesInOneSyscall) {
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory a(loop, kLocalhost);
  transport::UdpEdgeFactory b(loop, kLocalhost);
  a.bind(0);
  b.bind(0);
  std::size_t got = 0;
  b.set_receiver([&](const net::Endpoint&, SharedBytes) { ++got; });

  net::Endpoint to_b{kLocalhost, b.local_uri().endpoint.port};
  // Queue a pile of frames outside the loop, then flush: far fewer
  // sendmmsg calls than datagrams.
  for (int i = 0; i < 40; ++i) a.send_to(to_b, Bytes{std::uint8_t(i)});
  a.flush();
  EXPECT_EQ(a.stats().datagrams_sent, 40u);
  EXPECT_LE(a.stats().send_batches, 2u);

  ASSERT_TRUE(drive_until(loop, [&] { return got == 40; }));
  EXPECT_LE(b.stats().recv_batches, b.stats().datagrams_received);
}

TEST(UdpEdgeFactory, IcmpRefusalReportsAndClosesEdge) {
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory a(loop, kLocalhost);
  a.bind(0);

  // A port guaranteed dead: bind an ephemeral socket, note the port,
  // close it.
  net::Endpoint dead;
  {
    transport::UdpEdgeFactory probe(loop, kLocalhost);
    probe.bind(0);
    dead = net::Endpoint{kLocalhost, probe.local_uri().endpoint.port};
  }

  std::vector<std::pair<net::Endpoint, p2p::DisconnectCause>> reports;
  a.set_error_handler([&](const net::Endpoint& remote,
                          p2p::DisconnectCause cause, int err) {
    EXPECT_EQ(err, ECONNREFUSED);
    reports.emplace_back(remote, cause);
  });
  p2p::Edge& edge = a.edge_to(dead);

  // Loopback refusals can take one extra round trip to surface; prod
  // a few times.
  for (int i = 0; i < 3 && reports.empty(); ++i) {
    a.send_to(dead, Bytes{42});
    a.flush();
    drive_until(loop, [&] { return !reports.empty(); },
                200 * kMillisecond);
  }
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports[0].first, dead);
  EXPECT_EQ(reports[0].second, p2p::DisconnectCause::kCloseFrame);
  EXPECT_GE(a.stats().icmp_errors + a.stats().send_errors, 1u);
  // The held handle to the dead remote reads closed; edge_to() reopens
  // that same handle.
  EXPECT_TRUE(edge.closed());
  EXPECT_EQ(&a.edge_to(dead), &edge);
  EXPECT_FALSE(edge.closed());
}

TEST(UdpEdgeFactory, EdgeHandleOutlivesClose) {
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory edges(loop, kLocalhost);
  wow::testing::expect_edge_handle_contract(edges);
}

TEST(UdpEdgeFactory, AdvertisedUriRules) {
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory edges(loop, kLocalhost);
  edges.bind(0);
  ASSERT_TRUE(edges.is_open());
  wow::testing::expect_advertised_uri_rules(edges);
  EXPECT_TRUE(edges.is_open());
}

/// A frame of `size` >= 2 bytes that names itself: a 16-bit index, then
/// a pattern.
Bytes numbered(std::size_t index, std::size_t size) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(index * 31 + i);
  }
  out[0] = static_cast<std::uint8_t>(index >> 8);
  out[1] = static_cast<std::uint8_t>(index);
  return out;
}

/// A plain UDP socket bound to an ephemeral 127.0.0.1 port, with no
/// UDP_GRO: a foreign sender, or a receiver built before GSO runs.
class PlainSocket {
 public:
  PlainSocket() : fd_(socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0)) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof sa;
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0 &&
        getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
      endpoint_ = {kLocalhost, ntohs(sa.sin_port)};
    }
    timeval timeout{1, 0};  // a blocking recv() gives up after 1 s
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~PlainSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  PlainSocket(const PlainSocket&) = delete;
  PlainSocket& operator=(const PlainSocket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// Port 0 when the socket could not be opened and bound.
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  int fd_;
  net::Endpoint endpoint_;
};

/// Sender A and receivers B and C on one loop, each receiver recording
/// its frames in arrival order.
class UdpEdgeBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    a.bind(0);
    b.bind(0);
    c.bind(0);
    ASSERT_TRUE(a.is_open() && b.is_open() && c.is_open());
    to_b = {kLocalhost, b.local_uri().endpoint.port};
    to_c = {kLocalhost, c.local_uri().endpoint.port};
    // Room to queue a whole batch sent as single datagrams (about 2.5 KB
    // of receive buffer each on loopback); the kernel clamps the request
    // to net.core.rmem_max and doubles it.
    int bytes = 1 << 20;
    setsockopt(b.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
    setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
    b.set_receiver([this](const net::Endpoint&, SharedBytes payload) {
      at_b.push_back(payload.to_bytes());
    });
    c.set_receiver([this](const net::Endpoint&, SharedBytes payload) {
      at_c.push_back(payload.to_bytes());
    });
  }

  /// Queue `batch` on A in order, flush, and wait for every frame plus a
  /// short grace for any extra one.
  void send_and_wait(
      const std::vector<std::pair<net::Endpoint, Bytes>>& batch) {
    for (const auto& [to, frame] : batch) {
      (to == to_b ? want_b : want_c).push_back(frame);
      a.send_to(to, Bytes(frame));
    }
    a.flush();
    drive_until(loop, [&] {
      return at_b.size() >= want_b.size() && at_c.size() >= want_c.size();
    });
    loop.run_for(20 * kMillisecond);
  }

  /// 100 frames of vtcp's 1511 B to B, more than one GSO message
  /// carries; a run of equal small frames ending in a shorter one; a
  /// run followed straight by a larger frame; then frames to C
  /// interleaved with frames to B.
  [[nodiscard]] std::vector<std::pair<net::Endpoint, Bytes>> mixed_batch()
      const {
    std::vector<std::pair<net::Endpoint, Bytes>> batch;
    auto add = [&](const net::Endpoint& to, std::size_t size) {
      batch.emplace_back(to, numbered(batch.size(), size));
    };
    for (int i = 0; i < 100; ++i) add(to_b, 1511);
    for (int i = 0; i < 12; ++i) add(to_b, 200);
    add(to_b, 150);
    for (int i = 0; i < 8; ++i) add(to_b, 120);
    add(to_b, 300);
    for (int i = 0; i < 10; ++i) {
      add(to_c, 64);
      add(to_b, 64);
    }
    return batch;
  }

  /// 10 frames to B, one to 127.0.0.1:0 (the kernel refuses port 0 with
  /// a synchronous EINVAL), 10 more to B; then one flush.
  void send_around_bad_frame() {
    for (std::size_t i = 0; i < 21; ++i) {
      if (i == 10) {
        a.send_to(kNowhere, numbered(i, 100));
        continue;
      }
      want_b.push_back(numbered(i, 100));
      a.send_to(to_b, numbered(i, 100));
    }
    a.flush();
  }

  const net::Endpoint kNowhere{kLocalhost, 0};
  transport::RealtimeEventLoop loop;
  transport::UdpEdgeFactory a{loop, kLocalhost};
  transport::UdpEdgeFactory b{loop, kLocalhost};
  transport::UdpEdgeFactory c{loop, kLocalhost};
  net::Endpoint to_b;
  net::Endpoint to_c;
  std::vector<Bytes> want_b;
  std::vector<Bytes> want_c;
  std::vector<Bytes> at_b;
  std::vector<Bytes> at_c;
};

TEST_F(UdpEdgeBatch, MixedRunsArriveIntactAndInOrder) {
  auto batch = mixed_batch();
  send_and_wait(batch);
  EXPECT_EQ(at_b, want_b);
  EXPECT_EQ(at_c, want_c);
  EXPECT_EQ(a.stats().datagrams_sent, batch.size());
  EXPECT_EQ(b.stats().datagrams_received, want_b.size());
  EXPECT_EQ(c.stats().datagrams_received, want_c.size());
  EXPECT_EQ(a.stats().send_errors, 0u);
  EXPECT_GT(a.stats().coalesced_sends, 0u);
  EXPECT_GT(b.stats().coalesced_receives, 0u);
}

TEST_F(UdpEdgeBatch, RefusedGsoResendsSingleDatagrams) {
  // With SO_NO_CHECK the kernel refuses every GSO message with EINVAL
  // and still sends plain datagrams.
  int on = 1;
  ASSERT_EQ(setsockopt(a.fd(), SOL_SOCKET, SO_NO_CHECK, &on, sizeof on), 0);
  auto batch = mixed_batch();
  send_and_wait(batch);
  EXPECT_EQ(at_b, want_b);
  EXPECT_EQ(at_c, want_c);
  EXPECT_EQ(a.stats().datagrams_sent, batch.size());
  EXPECT_EQ(a.stats().send_errors, 0u);
  EXPECT_EQ(a.stats().coalesced_sends, 0u);
}

TEST_F(UdpEdgeBatch, BadDestinationIsReportedPerDatagram) {
  std::vector<std::pair<net::Endpoint, int>> reports;
  a.set_error_handler([&](const net::Endpoint& remote, p2p::DisconnectCause,
                          int err) { reports.emplace_back(remote, err); });
  std::vector<std::pair<net::Endpoint, Bytes>> batch;
  for (std::size_t i = 0; i < 5; ++i) {
    a.send_to(kNowhere, numbered(i, 100));
  }
  for (std::size_t i = 5; i < 10; ++i) batch.emplace_back(to_b, numbered(i, 100));
  send_and_wait(batch);

  ASSERT_EQ(reports.size(), 5u);
  for (const auto& [remote, err] : reports) {
    EXPECT_EQ(remote, kNowhere);
    EXPECT_EQ(err, EINVAL);
  }
  EXPECT_EQ(a.stats().send_errors, 5u);
  EXPECT_EQ(a.stats().datagrams_sent, 5u);
  EXPECT_EQ(a.stats().coalesced_sends, 1u);  // B's run stays one message
  EXPECT_EQ(at_b, want_b);
}

TEST_F(UdpEdgeBatch, RunsReachAPlainSocketAsSingleDatagrams) {
  PlainSocket plain;
  ASSERT_NE(plain.endpoint().port, 0);
  std::vector<Bytes> want;
  for (std::size_t i = 0; i < 10; ++i) {
    want.push_back(numbered(i, i < 9 ? 100 : 60));
    a.send_to(plain.endpoint(), Bytes(want.back()));
  }
  a.flush();
  EXPECT_EQ(a.stats().coalesced_sends, 1u);
  for (const Bytes& frame : want) {
    Bytes got(4096);
    ssize_t n = recv(plain.fd(), got.data(), got.size(), 0);
    ASSERT_GT(n, 0);
    got.resize(static_cast<std::size_t>(n));
    EXPECT_EQ(got, frame);
  }
  std::uint8_t extra = 0;
  EXPECT_LT(recv(plain.fd(), &extra, 1, MSG_DONTWAIT), 0);
}

TEST_F(UdpEdgeBatch, SingleDatagramsDrainManyPerCall) {
  // 32 datagrams of different sizes from a plain socket reach B
  // uncoalesced, one per buffer.  A ring of 8 slots would need at least
  // 4 recvmmsg calls for them; 32 slots take one when all are queued
  // before the first read.
  PlainSocket sender;
  ASSERT_GE(sender.fd(), 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(to_b.port);
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (std::size_t i = 0; i < 32; ++i) {
    want_b.push_back(numbered(i, 100 + i));
    const Bytes& frame = want_b.back();
    ASSERT_EQ(sendto(sender.fd(), frame.data(), frame.size(), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(frame.size()));
  }

  ASSERT_TRUE(drive_until(loop, [&] { return at_b.size() >= 32; }));
  EXPECT_EQ(at_b, want_b);
  EXPECT_EQ(b.stats().coalesced_receives, 0u);
  EXPECT_LT(b.stats().recv_batches, 4u);
}

TEST_F(UdpEdgeBatch, OversizeSegmentsAreDropped) {
  // A foreign sender posts a GSO train of 3 x 3000 B datagrams, each
  // over kMaxDatagram.
  PlainSocket sender;
  ASSERT_GE(sender.fd(), 0);
  Bytes train(3 * 3000, 0xab);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(to_b.port);
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  iovec iov{train.data(), train.size()};
  union {
    char buf[CMSG_SPACE(sizeof(std::uint16_t))];
    cmsghdr align;
  } control{};
  msghdr msg{};
  msg.msg_name = &to;
  msg.msg_namelen = sizeof to;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control.buf;
  msg.msg_controllen = sizeof control.buf;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  std::uint16_t segment = 3000;
  std::memcpy(CMSG_DATA(cm), &segment, sizeof segment);
  ASSERT_EQ(sendmsg(sender.fd(), &msg, 0),
            static_cast<ssize_t>(train.size()));

  ASSERT_TRUE(drive_until(loop, [&] {
    return b.stats().dropped_oversize >= 3;
  }));
  loop.run_for(20 * kMillisecond);
  EXPECT_EQ(b.stats().dropped_oversize, 3u);
  EXPECT_EQ(b.stats().datagrams_received, 0u);
  EXPECT_TRUE(at_b.empty());
}

TEST_F(UdpEdgeBatch, ReceiverMayCloseMidRun) {
  b.set_receiver([this](const net::Endpoint&, SharedBytes payload) {
    at_b.push_back(payload.to_bytes());
    b.close();
  });
  for (std::size_t i = 0; i < 10; ++i) a.send_to(to_b, numbered(i, 100));
  a.flush();
  ASSERT_EQ(a.stats().coalesced_sends, 1u);
  drive_until(loop, [&] { return !at_b.empty(); });
  loop.run_for(20 * kMillisecond);
  EXPECT_EQ(at_b, std::vector<Bytes>{numbered(0, 100)});
  EXPECT_EQ(b.stats().datagrams_received, 1u);
}

TEST_F(UdpEdgeBatch, ErrorHandlerMayCloseTheFactory) {
  int reports = 0;
  a.set_error_handler([&](const net::Endpoint&, p2p::DisconnectCause, int) {
    ++reports;
    a.close();
  });
  send_around_bad_frame();
  drive_until(loop, [&] { return reports > 0 && at_b.size() >= 20; });
  loop.run_for(20 * kMillisecond);
  EXPECT_EQ(reports, 1);
  EXPECT_FALSE(a.is_open());
  EXPECT_EQ(at_b, want_b);
}

TEST_F(UdpEdgeBatch, ErrorHandlerMayQueueMoreFrames) {
  int reports = 0;
  a.set_error_handler([&](const net::Endpoint&, p2p::DisconnectCause, int) {
    if (++reports > 1) return;
    // 64 frames: the last one fills the send batch and flushes again
    // from inside the handler.
    for (std::size_t i = 100; i < 164; ++i) {
      want_b.push_back(numbered(i, 100));
      a.send_to(to_b, numbered(i, 100));
    }
  });
  send_around_bad_frame();
  drive_until(loop, [&] { return at_b.size() >= 84; });
  loop.run_for(20 * kMillisecond);
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(at_b, want_b);
  EXPECT_EQ(a.stats().datagrams_sent, 84u);
}

TEST(UdpEdgeFactory, ClassifiesSocketErrors) {
  using transport::UdpEdgeFactory;
  EXPECT_EQ(UdpEdgeFactory::classify_socket_error(ECONNREFUSED),
            p2p::DisconnectCause::kCloseFrame);
  EXPECT_EQ(UdpEdgeFactory::classify_socket_error(EHOSTUNREACH),
            p2p::DisconnectCause::kLinkError);
  EXPECT_EQ(UdpEdgeFactory::classify_socket_error(ENETUNREACH),
            p2p::DisconnectCause::kLinkError);
  EXPECT_EQ(UdpEdgeFactory::classify_socket_error(EMSGSIZE),
            p2p::DisconnectCause::kLinkError);
}

// The acceptance test for the whole PR: two full p2p nodes — linking
// engine, keepalives, CTM, the lot — form a ring over real UDP sockets
// on the real clock.  Identical protocol code to the simulator runs;
// only the injected NodeDeps differ.
TEST(RealtimeBackend, NodePairLinksOverRealUdp) {
  transport::RealtimeEventLoop loop;
  Rng rng(7);
  Logger logger;
  MetricsRegistry metrics;
  Tracer tracer;

  transport::UdpEdgeFactory* factory_a = nullptr;
  auto deps = [&](transport::UdpEdgeFactory** out) {
    p2p::NodeDeps d;
    d.timers = &loop;
    d.rng = &rng;
    d.logger = &logger;
    d.metrics = &metrics;
    d.tracer = &tracer;
    auto factory =
        std::make_unique<transport::UdpEdgeFactory>(loop, kLocalhost);
    if (out != nullptr) *out = factory.get();
    d.edges = std::move(factory);
    return d;
  };

  // Fast maintenance so the first bootstrap probe lands within
  // milliseconds of real time, not the default 2 s.
  p2p::NodeConfig ca;
  ca.port = 0;
  ca.maintenance_period = 50 * kMillisecond;
  p2p::Node a(deps(&factory_a), ca);
  a.start();
  std::uint16_t a_port = factory_a->local_uri().endpoint.port;
  ASSERT_NE(a_port, 0);

  p2p::NodeConfig cb;
  cb.port = 0;
  cb.maintenance_period = 50 * kMillisecond;
  cb.bootstrap = {transport::Uri{transport::TransportKind::kUdp,
                                 net::Endpoint{kLocalhost, a_port}}};
  p2p::Node b(deps(nullptr), cb);
  b.start();

  ASSERT_TRUE(drive_until(loop, [&] {
    return a.has_direct(b.address()) && b.has_direct(a.address());
  }, 10 * kSecond));

  std::vector<Bytes> got;
  a.set_data_handler([&](const p2p::Address&, BytesView payload) {
    got.emplace_back(payload.begin(), payload.end());
  });
  b.send_data(a.address(), Bytes{1, 2, 3});
  ASSERT_TRUE(drive_until(loop, [&] { return !got.empty(); }));
  EXPECT_EQ(got[0], (Bytes{1, 2, 3}));

  a.stop();
  b.stop();
}

}  // namespace
}  // namespace wow
