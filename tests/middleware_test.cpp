#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "middleware/cpu.h"
#include "middleware/message_channel.h"
#include "middleware/nfs.h"
#include "middleware/pbs.h"
#include "middleware/pvm.h"
#include "test_util.h"

namespace wow::mw {
namespace {

using testing::IpopOverlay;

// ---------------------------------------------------------------- CPU model

TEST(CpuExecutor, RuntimeScalesWithSpeed) {
  sim::Simulator sim;
  CpuExecutor fast(sim, 2.0);
  CpuExecutor slow(sim, 0.5);
  SimTime fast_done = 0, slow_done = 0;
  fast.execute(10.0, [&] { fast_done = sim.now(); });
  slow.execute(10.0, [&] { slow_done = sim.now(); });
  sim.run();
  EXPECT_EQ(fast_done, from_seconds(5.0));
  EXPECT_EQ(slow_done, from_seconds(20.0));
}

TEST(CpuExecutor, FifoSingleCore) {
  sim::Simulator sim;
  CpuExecutor cpu(sim, 1.0);
  std::vector<int> order;
  cpu.execute(5.0, [&] { order.push_back(1); });
  cpu.execute(1.0, [&] { order.push_back(2); });  // waits behind job 1
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), from_seconds(6.0));
  EXPECT_EQ(cpu.completed(), 2u);
}

TEST(CpuExecutor, BackgroundLoadSlowsNewWork) {
  sim::Simulator sim;
  CpuExecutor cpu(sim, 1.0);
  cpu.set_background_load(1.0);  // one competing process -> half speed
  SimTime done = 0;
  cpu.execute(10.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, from_seconds(20.0));
}

// ------------------------------------------------------------- MessageChannel

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : net(3) {
    net.start_all();
    net.sim.run_until(kMinute);
    stack0 = std::make_unique<vtcp::TcpStack>(net.sim, *net.nodes[0]);
    stack1 = std::make_unique<vtcp::TcpStack>(net.sim, *net.nodes[1]);
  }

  IpopOverlay net;
  std::unique_ptr<vtcp::TcpStack> stack0;
  std::unique_ptr<vtcp::TcpStack> stack1;
};

TEST_F(ChannelTest, FramesSurviveSegmentation) {
  std::vector<Bytes> received;
  std::shared_ptr<MessageChannel> server;
  stack1->listen(80, [&](std::shared_ptr<vtcp::TcpSocket> s) {
    server = MessageChannel::wrap(std::move(s));
    server->set_message_handler(
        [&](const Bytes& m) { received.push_back(m); });
  });
  auto client = MessageChannel::wrap(stack0->connect(net.vip(1), 80));

  // A large message (crosses many TCP segments), a tiny one, an empty
  // one — framing must keep the boundaries exact.
  Bytes big(50000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i % 251);
  }
  client->send(big);
  client->send(Bytes{42});
  client->send(Bytes{});
  net.sim.run_for(kMinute);

  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], big);
  EXPECT_EQ(received[1], Bytes{42});
  EXPECT_TRUE(received[2].empty());
}

TEST_F(ChannelTest, BidirectionalTraffic) {
  // The test owns accepted channels; a handler capturing its own
  // channel by shared_ptr would be a reference cycle that never frees.
  std::vector<std::shared_ptr<MessageChannel>> accepted;
  stack1->listen(80, [&](std::shared_ptr<vtcp::TcpSocket> s) {
    auto channel = MessageChannel::wrap(std::move(s));
    channel->set_message_handler([ch = channel.get()](const Bytes& m) {
      Bytes echo = m;
      echo.push_back(0xff);
      ch->send(echo);
    });
    accepted.push_back(std::move(channel));
  });
  auto client = MessageChannel::wrap(stack0->connect(net.vip(1), 80));
  Bytes reply;
  client->set_message_handler([&](const Bytes& m) { reply = m; });
  client->send(Bytes{1, 2, 3});
  net.sim.run_for(30 * kSecond);
  EXPECT_EQ(reply, (Bytes{1, 2, 3, 0xff}));
}

TEST_F(ChannelTest, OversizeSendIsRefused) {
  std::vector<std::size_t> sizes;
  std::shared_ptr<MessageChannel> server;
  stack1->listen(80, [&](std::shared_ptr<vtcp::TcpSocket> s) {
    server = MessageChannel::wrap(std::move(s));
    server->set_message_handler(
        [&](const Bytes& m) { sizes.push_back(m.size()); });
  });
  auto client = MessageChannel::wrap(stack0->connect(net.vip(1), 80));
  client->send(Bytes(MessageChannel::kMaxMessageBytes + 1));
  client->send(Bytes(3, 7));
  net.sim.run_for(kMinute);
  EXPECT_EQ(sizes, std::vector<std::size_t>{3});
}

/// A channel on node 1 read by a raw vtcp peer on node 0, which writes
/// a length prefix of its choosing: the channel's trust boundary.
class ChannelPrefixTest : public ChannelTest {
 protected:
  /// Send `prefix` as a message length, then 64 bytes, and run a
  /// minute.
  void feed_prefix(std::uint32_t prefix) {
    stack1->listen(80, [this](std::shared_ptr<vtcp::TcpSocket> s) {
      server = MessageChannel::wrap(std::move(s));
      server->set_message_handler([this](const Bytes&) { ++messages; });
      server->set_closed_handler([this](bool error) {
        channel_closed = error;
        sent_at_close = server->socket().stats().segments_sent;
      });
    });
    peer = stack0->connect(net.vip(1), 80);
    peer->set_closed_handler([this](bool error) { peer_closed = error; });
    Bytes stream(4 + 64, 0xab);
    HeaderWriter(stream.data()).u32(prefix);
    peer->send(std::move(stream));
    net.sim.run_for(kMinute);
  }

  /// A prefix over the cap resets the connection: the channel's closed
  /// handler reports an error, the peer sees the reset, no message is
  /// delivered, and the reset side sends nothing after its RST.
  void expect_reset() {
    EXPECT_EQ(messages, 0);
    ASSERT_TRUE(channel_closed.has_value()) << "the channel kept waiting";
    EXPECT_TRUE(*channel_closed);
    ASSERT_TRUE(peer_closed.has_value());
    EXPECT_TRUE(*peer_closed);
    EXPECT_EQ(server->socket().stats().segments_sent, sent_at_close)
        << "a segment followed the RST";
  }

  std::shared_ptr<MessageChannel> server;
  std::shared_ptr<vtcp::TcpSocket> peer;
  int messages = 0;
  std::optional<bool> channel_closed;
  std::optional<bool> peer_closed;
  std::uint64_t sent_at_close = 0;
};

TEST_F(ChannelPrefixTest, PrefixOverTheCapResetsTheChannel) {
  feed_prefix((16u << 20) + 1);  // one byte over the 16 MiB cap
  expect_reset();
}

/// 0xFFFFFFFF: in 32-bit arithmetic `4 + len` wraps to 3, so a length
/// check written that way passes and the copy runs 4 GiB past the
/// buffer.
TEST_F(ChannelPrefixTest, WrappingPrefixResetsTheChannel) {
  feed_prefix(0xffffffffu);
  expect_reset();
}

// ----------------------------------------------------------------------- NFS

class NfsTest : public ChannelTest {};

TEST_F(NfsTest, ReadWholeFile) {
  NfsServer server(net.sim, *stack1);
  server.create_file("input.dat", 1000000);
  NfsClient client(net.sim, *stack0, net.vip(1));

  bool ok = false, done = false;
  client.read_file("input.dat", [&](bool result) {
    ok = result;
    done = true;
  });
  net.sim.run_for(2 * kMinute);
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(client.stats().bytes_read, 1000000u);
  EXPECT_EQ(server.stats().bytes_read, 1000000u);
}

TEST_F(NfsTest, ReadMissingFileFails) {
  NfsServer server(net.sim, *stack1);
  NfsClient client(net.sim, *stack0, net.vip(1));
  bool ok = true, done = false;
  client.read_file("nope.dat", [&](bool result) {
    ok = result;
    done = true;
  });
  net.sim.run_for(kMinute);
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST_F(NfsTest, WriteCreatesAndGrowsFile) {
  NfsServer server(net.sim, *stack1);
  NfsClient client(net.sim, *stack0, net.vip(1));
  bool done = false;
  client.write_file("out.dat", 300000, [&](bool ok) {
    EXPECT_TRUE(ok);
    done = true;
  });
  net.sim.run_for(kMinute);
  ASSERT_TRUE(done);
  EXPECT_EQ(server.file_size("out.dat"), 300000u);
}

TEST_F(NfsTest, SequentialTransfersQueue) {
  NfsServer server(net.sim, *stack1);
  server.create_file("a", 100000);
  NfsClient client(net.sim, *stack0, net.vip(1));
  std::vector<int> order;
  client.read_file("a", [&](bool) { order.push_back(1); });
  client.write_file("b", 50000, [&](bool) { order.push_back(2); });
  client.read_file("b", [&](bool) { order.push_back(3); });
  net.sim.run_for(2 * kMinute);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(NfsTest, ZeroByteFile) {
  NfsServer server(net.sim, *stack1);
  server.create_file("empty", 0);
  NfsClient client(net.sim, *stack0, net.vip(1));
  bool ok = false, done = false;
  client.read_file("empty", [&](bool result) {
    ok = result;
    done = true;
  });
  net.sim.run_for(kMinute);
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);
}

// A name no u16 length prefix can frame fails before anything is sent;
// framed as "", it would store the bytes as file "".
TEST_F(NfsTest, OversizeNameFailsAtOnce) {
  NfsServer server(net.sim, *stack1);
  NfsClient client(net.sim, *stack0, net.vip(1));
  bool ok = true, done = false;
  client.write_file(std::string(ByteWriter::kMaxLenPrefixed + 1, 'n'), 1000,
                    [&](bool result) {
                      ok = result;
                      done = true;
                    });
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(client.stats().failures, 1u);
  net.sim.run_for(kMinute);
  EXPECT_EQ(server.stats().writes, 0u);
}

// ----------------------------------------------------------------------- PBS

TEST(Pbs, JobsRunAndComplete) {
  IpopOverlay net(4);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack head_stack(net.sim, *net.nodes[0]);
  NfsServer nfs(net.sim, head_stack);
  PbsServer pbs(net.sim, head_stack, nfs);

  std::vector<std::unique_ptr<vtcp::TcpStack>> stacks;
  std::vector<std::unique_ptr<CpuExecutor>> cpus;
  std::vector<std::unique_ptr<PbsWorker>> workers;
  for (int i = 1; i <= 2; ++i) {
    stacks.push_back(std::make_unique<vtcp::TcpStack>(
        net.sim, *net.nodes[static_cast<std::size_t>(i)]));
    cpus.push_back(std::make_unique<CpuExecutor>(net.sim, 1.0));
    // Appended, not `"w" + std::to_string(i)`: GCC 12 at -O3 reports a
    // false -Wrestrict on that temporary in this function.
    std::string name = "w";
    name += std::to_string(i);
    workers.push_back(std::make_unique<PbsWorker>(
        net.sim, *stacks.back(), *cpus.back(), net.vip(0), name));
    workers.back()->start();
  }
  net.sim.run_for(30 * kSecond);
  ASSERT_EQ(pbs.registered_workers(), 2u);

  for (std::uint64_t j = 0; j < 6; ++j) {
    pbs.qsub(JobSpec{j, 10.0, 100000, 50000});
  }
  net.sim.run_for(5 * kMinute);
  ASSERT_EQ(pbs.completed().size(), 6u);
  for (const auto& record : pbs.completed()) {
    EXPECT_GT(record.wall_seconds(), 9.9);
    EXPECT_FALSE(record.worker.empty());
  }
  // Two workers, six 10 s jobs: both must have run some.
  int w1 = 0, w2 = 0;
  for (const auto& record : pbs.completed()) {
    (record.worker == "w1" ? w1 : w2)++;
  }
  EXPECT_GT(w1, 0);
  EXPECT_GT(w2, 0);
  EXPECT_GT(pbs.throughput_jobs_per_minute(), 0.0);
}

TEST(Pbs, QueueDrainsFifoWhenSingleWorker) {
  IpopOverlay net(3);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack head_stack(net.sim, *net.nodes[0]);
  NfsServer nfs(net.sim, head_stack);
  PbsServer pbs(net.sim, head_stack, nfs);

  vtcp::TcpStack wstack(net.sim, *net.nodes[1]);
  CpuExecutor cpu(net.sim, 1.0);
  PbsWorker worker(net.sim, wstack, cpu, net.vip(0), "solo");
  worker.start();
  net.sim.run_for(30 * kSecond);

  for (std::uint64_t j = 0; j < 4; ++j) {
    pbs.qsub(JobSpec{j, 5.0, 10000, 1000});
  }
  net.sim.run_for(3 * kMinute);
  ASSERT_EQ(pbs.completed().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pbs.completed()[i].spec.id, i) << "FIFO order violated";
  }
  // Queue times must be increasing: later jobs waited behind earlier.
  EXPECT_GT(pbs.completed()[3].queue_seconds(),
            pbs.completed()[0].queue_seconds());
}

// A worker whose name no u16 length prefix can frame never registers;
// framed as "", it would sit on the head node as a nameless worker.
TEST(Pbs, OversizeWorkerNameNeverRegisters) {
  IpopOverlay net(3);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack head_stack(net.sim, *net.nodes[0]);
  NfsServer nfs(net.sim, head_stack);
  PbsServer pbs(net.sim, head_stack, nfs);

  vtcp::TcpStack wstack(net.sim, *net.nodes[1]);
  CpuExecutor cpu(net.sim, 1.0);
  PbsWorker worker(net.sim, wstack, cpu, net.vip(0),
                   std::string(ByteWriter::kMaxLenPrefixed + 1, 'w'));
  worker.start();
  net.sim.run_for(30 * kSecond);
  EXPECT_EQ(pbs.registered_workers(), 0u);
}

/// A connection that never sends its registration is not a worker, to
/// either head node.
TEST(HeadNode, SilentConnectionIsNotAWorker) {
  IpopOverlay net(3);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack head_stack(net.sim, *net.nodes[0]);
  NfsServer nfs(net.sim, head_stack);
  PbsServer pbs(net.sim, head_stack, nfs);
  PvmMaster pvm(net.sim, head_stack, PvmWorkload{});

  vtcp::TcpStack stack(net.sim, *net.nodes[1]);
  auto to_pbs = stack.connect(net.vip(0), PbsServer::kPort);
  auto to_pvm = stack.connect(net.vip(0), PvmMaster::kPort);
  net.sim.run_for(30 * kSecond);
  ASSERT_EQ(to_pbs->state(), vtcp::TcpSocket::State::kEstablished);
  ASSERT_EQ(to_pvm->state(), vtcp::TcpSocket::State::kEstablished);
  EXPECT_EQ(pbs.registered_workers(), 0u);
  EXPECT_EQ(pvm.registered_workers(), 0);
}

// ----------------------------------------------------------------------- PVM

TEST(Pvm, RoundSynchronizedMakespan) {
  IpopOverlay net(5);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack master_stack(net.sim, *net.nodes[0]);

  PvmWorkload workload;
  workload.rounds = 3;
  workload.tasks_per_round = 6;
  workload.task_seconds = 4.0;
  workload.master_seconds = 1.0;
  workload.task_msg_bytes = 5000;
  workload.result_msg_bytes = 5000;
  PvmMaster master(net.sim, master_stack, workload);

  std::vector<std::unique_ptr<vtcp::TcpStack>> stacks;
  std::vector<std::unique_ptr<CpuExecutor>> cpus;
  std::vector<std::unique_ptr<PvmWorker>> workers;
  for (int i = 1; i <= 3; ++i) {
    stacks.push_back(std::make_unique<vtcp::TcpStack>(
        net.sim, *net.nodes[static_cast<std::size_t>(i)]));
    cpus.push_back(std::make_unique<CpuExecutor>(net.sim, 1.0));
    workers.push_back(std::make_unique<PvmWorker>(
        net.sim, *stacks.back(), *cpus.back(), net.vip(0)));
    workers.back()->start();
  }

  double makespan = -1;
  master.run(3, [&](double s) { makespan = s; });
  net.sim.run_for(10 * kMinute);

  ASSERT_GT(makespan, 0.0);
  EXPECT_EQ(master.completed_rounds(), 3);
  EXPECT_EQ(master.tasks_dispatched(), 18u);
  // Lower bound: 3 rounds x (2 waves x 4 s + 1 s master) = 27 s; some
  // communication on top.  Upper bound: sequential would be 75 s.
  EXPECT_GE(makespan, 27.0);
  EXPECT_LT(makespan, 75.0);
}

TEST(Pvm, WaitsForExpectedWorkers) {
  IpopOverlay net(4);
  net.start_all();
  net.sim.run_until(kMinute);
  vtcp::TcpStack master_stack(net.sim, *net.nodes[0]);
  PvmWorkload workload;
  workload.rounds = 1;
  workload.tasks_per_round = 2;
  workload.task_seconds = 1.0;
  PvmMaster master(net.sim, master_stack, workload);

  double makespan = -1;
  master.run(2, [&](double s) { makespan = s; });

  vtcp::TcpStack s1(net.sim, *net.nodes[1]);
  CpuExecutor c1(net.sim, 1.0);
  PvmWorker w1(net.sim, s1, c1, net.vip(0));
  w1.start();
  net.sim.run_for(kMinute);
  EXPECT_LT(makespan, 0.0) << "must not start with 1 of 2 workers";

  vtcp::TcpStack s2(net.sim, *net.nodes[2]);
  CpuExecutor c2(net.sim, 1.0);
  PvmWorker w2(net.sim, s2, c2, net.vip(0));
  w2.start();
  net.sim.run_for(2 * kMinute);
  EXPECT_GT(makespan, 0.0);
}

}  // namespace
}  // namespace wow::mw
