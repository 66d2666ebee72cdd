// Golden digests (DESIGN §7): seven seeded scenarios hash their state at
// every simulated minute and at the end, and the lines must equal the
// committed tests/golden/<scenario>.digest.  The determinism suite only
// compares two runs of one binary; these files pin behaviour across
// changes.
//
//   golden_test                  compare against the committed files
//   golden_test --update-golden  rewrite them (CHANGES.md says why)
//
// A digest covers the executed-event count; each node's address, its
// connections sorted by (peer, type) and seven NodeStats counters; and
// the network's sent, delivered and loss totals.  It covers no endpoint,
// host name or wire byte, so re-addressing a fleet or changing the frame
// checksum cannot move it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/bulk_transfer.h"
#include "net/faults.h"
#include "p2p/adversary.h"
#include "test_util.h"
#include "wow/testbed.h"

namespace wow {
namespace {

bool g_update_golden = false;

/// 64-bit FNV-1a.  Deliberately not p2p::frame_checksum: changing the
/// wire checksum must not move a digest.
class Hasher {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void address(const p2p::Address& a) {
    for (std::uint32_t limb : a.limbs()) word(limb);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The nodes of an owning vector, in order.
std::vector<const p2p::Node*> nodes_of(
    const std::vector<std::unique_ptr<p2p::Node>>& nodes) {
  std::vector<const p2p::Node*> out;
  for (const auto& n : nodes) out.push_back(n.get());
  return out;
}

/// Drives a run and samples its digest between run chunks, never from
/// a simulator timer, so recording cannot change the run.
class Recorder {
 public:
  Recorder(sim::Simulator& sim, const net::Network& network,
           std::vector<const p2p::Node*> nodes)
      : sim_(sim), network_(network), nodes_(std::move(nodes)) {}

  /// Run to `until`, sampling at every simulated minute on the way.
  void run_until(SimTime until) {
    while (sim_.now() < until) {
      const SimTime minute = (sim_.now() / kMinute + 1) * kMinute;
      sim_.run_until(std::min(minute, until));
      if (sim_.now() == minute) sample("");
    }
  }
  void run_for(SimDuration d) { run_until(sim_.now() + d); }

  /// The closing sample; returns every line recorded.
  std::string finish() {
    sample("end ");
    return text_;
  }

 private:
  void sample(const char* label) {
    Hasher h;
    h.word(sim_.executed_events());
    std::vector<std::pair<p2p::Address, p2p::ConnectionType>> conns;
    for (const p2p::Node* n : nodes_) {
      h.address(n->address());
      conns.clear();
      n->connections().for_each([&](const p2p::Connection& c) {
        conns.emplace_back(c.addr, c.type);
      });
      std::sort(conns.begin(), conns.end());
      h.word(conns.size());
      for (const auto& [peer, type] : conns) {
        h.address(peer);
        h.word(static_cast<std::uint64_t>(type));
      }
      const p2p::NodeStats& s = n->stats();
      for (std::uint64_t v :
           {s.data_sent, s.data_delivered, s.data_forwarded,
            s.connections_added, s.connections_lost, s.ctm_sent,
            s.pings_sent}) {
        h.word(v);
      }
    }
    const net::Network::Stats& ns = network_.stats();
    h.word(ns.sent);
    h.word(ns.delivered);
    h.word(ns.drops(net::Network::DropReason::kLoss));
    char line[128];
    std::snprintf(line, sizeof line,
                  "%st=%" PRId64 "s events=%" PRIu64 " digest=%016" PRIx64
                  "\n",
                  label, sim_.now() / kSecond, sim_.executed_events(),
                  h.value());
    text_ += line;
  }

  sim::Simulator& sim_;
  const net::Network& network_;
  const std::vector<const p2p::Node*> nodes_;
  std::string text_;
};

/// Compare `digest` with tests/golden/<name>.digest, or rewrite the
/// file under --update-golden.
void check_golden(const std::string& name, const std::string& about,
                  const std::string& digest) {
  const std::string path = std::string(WOW_GOLDEN_DIR) + "/" + name +
                           ".digest";
  const std::string text = "# " + name + ": " + about + "\n" + digest;
  if (g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path
                  << " (golden_test --update-golden writes it)";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), text)
      << name << " changed behaviour; if intended, rerun with "
      << "--update-golden and say why in CHANGES.md";
}

TEST(Golden, PublicOverlayAllPairs) {
  testing::PublicOverlay net(10, /*seed=*/12345);
  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  net.start_all();
  rec.run_until(3 * kMinute);
  for (auto& a : net.nodes) {
    for (auto& b : net.nodes) {
      if (a != b) a->send_data(b->address(), Bytes{7});
    }
  }
  rec.run_for(kMinute);
  check_golden("public10",
               "10-node public overlay, seed 12345, all-pairs traffic at "
               "3 min",
               rec.finish());
}

TEST(Golden, ChaosSoakSeed101) {
  constexpr std::uint64_t kSeed = 101;
  testing::ThreeSiteOverlay net(kSeed);
  net::FaultPlan::RandomParams params;
  params.events = 10;
  params.start = 3 * kMinute;
  params.horizon = 10 * kMinute;
  params.sites = net.sites;
  for (std::size_t i = net.nodes.size() / 2; i < net.nodes.size(); ++i) {
    params.hosts.push_back(net.hosts[i]->id());
  }
  auto plan = net::FaultPlan::random(kSeed, params);

  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  net.start_all();
  rec.run_until(3 * kMinute);
  net.network.faults().schedule(plan);
  for (int burst = 0; burst < 24; ++burst) {
    auto live = net.live();
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      live[i]->send_data(live[i + 1]->address(), Bytes{7, 7});
    }
    rec.run_for(20 * kSecond);
  }
  rec.run_for(5 * kMinute);
  check_golden("chaos12",
               "12 hosts on 3 WAN sites, FaultPlan::random seed 101 with "
               "crash restarts, chaos_test traffic",
               rec.finish());
}

TEST(Golden, FlyweightFlashCrowd) {
  Fleet net(testing::megascale(/*seed=*/1, /*nodes=*/256, /*wellknown=*/3));
  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  net.start_all();
  rec.run_until(5 * kMinute);
  check_golden("crowd256",
               "256 flyweight nodes boot in one burst against 3 "
               "well-known endpoints, seed 1",
               rec.finish());
}

/// bootstrap_test's flash crowd at 1,000 flyweight nodes: one burst
/// against three well-known endpoints, and endpoint 1 down from 10 s
/// to 2 min 10 s while the crowd is still joining.
TEST(Golden, FlyweightCrowdWithEndpointCrash) {
  Fleet net(testing::megascale(/*seed=*/4, /*nodes=*/1000, /*wellknown=*/3));
  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  net.start_all();
  rec.run_until(10 * kSecond);
  net.nodes[1]->stop();
  rec.run_for(2 * kMinute);
  net.nodes[1]->restart();
  rec.run_until(5 * kMinute);
  check_golden("crowd1k",
               "1000 flyweight nodes on 4 sites boot in one burst against "
               "3 well-known endpoints, endpoint 1 down from 10 s to "
               "2 min 10 s, seed 4",
               rec.finish());
}

TEST(Golden, FlyweightRampRandomPool) {
  Fleet net(testing::megascale(/*seed=*/2, /*nodes=*/256, /*wellknown=*/0));
  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  // One start per 20 ms step.
  for (std::size_t i = 0; i < net.nodes.size(); ++i) {
    rec.run_until(static_cast<SimTime>(i) * 20 * kMillisecond);
    net.nodes[i]->start();
  }
  rec.run_until(5 * kMinute);
  check_golden("ramp256",
               "256 flyweight nodes join 20 ms apart off random bootstrap "
               "pools, seed 2",
               rec.finish());
}

/// determinism_test's reduced Figure-1 testbed, settled, then one vtcp
/// bulk transfer between two UFL compute nodes that hold no direct
/// connection, and a minute for the shortcut it triggers.  UFL's NAT
/// has no hairpin, so UFL-UFL links fail over from the public URI to
/// the private one; the digest pins those failovers, the shortcut and
/// the vtcp timers.
TEST(Golden, TestbedUflBulkTransfer) {
  TestbedConfig cfg;
  cfg.seed = 777;
  cfg.planetlab_routers = 24;
  cfg.planetlab_hosts = 8;
  Testbed bed(cfg);
  sim::Simulator& sim = bed.simulator();
  std::vector<const p2p::Node*> nodes = nodes_of(bed.routers());
  for (const auto& c : bed.nodes()) nodes.push_back(&c.ipop->p2p());
  Recorder rec(sim, bed.network(), std::move(nodes));

  bed.start_routers();
  rec.run_until(3 * kMinute);
  bed.start_compute();
  rec.run_for(3 * kMinute);

  Testbed::ComputeNode& src = bed.node(3);
  Testbed::ComputeNode& dst = bed.node(2);
  apps::BulkSource source(sim, *src.tcp, 5001, 2 << 20);
  apps::BulkSink sink(sim, *dst.tcp);
  bool done = false;
  sink.fetch(src.vip(), 5001,
             [&](const apps::BulkSink::Result&) { done = true; });
  const SimTime deadline = sim.now() + 30 * kMinute;
  while (!done && sim.now() < deadline) rec.run_for(10 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(sink.received(), 2u << 20);
  rec.run_for(kMinute);
  EXPECT_TRUE(dst.ipop->p2p().has_direct(src.ipop->p2p().address()));
  check_golden("testbed24",
               "Figure-1 testbed with 24 PlanetLab routers on 8 hosts, "
               "seed 777, then a 2 MiB vtcp transfer node003 -> node002 "
               "and one more minute",
               rec.finish());
}

/// byzantine_test's AdversaryFabricIsDeterministic fleet with the
/// census on: one node runs every attack for five minutes against the
/// ledger, the rate limiter, the replay window, the gossip cap and the
/// census TTL.
TEST(Golden, ByzantineFullMix) {
  p2p::NodeConfig cfg;
  cfg.census_interval = kMinute;
  testing::PublicOverlay net(12, /*seed=*/77, cfg);
  Recorder rec(net.sim, net.network, nodes_of(net.nodes));
  net.start_all();
  rec.run_until(2 * kMinute);
  p2p::AdversaryAgent agent(*net.nodes[4], net.sim, 909);
  agent.start();
  rec.run_for(5 * kMinute);
  EXPECT_GT(agent.stats().frames_injected, 0u);
  check_golden("byzantine12",
               "12-node public overlay, seed 77, census every minute, "
               "node 4 runs the full adversary mix from 2 to 7 min",
               rec.finish());
}

}  // namespace
}  // namespace wow

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--update-golden") {
      std::fprintf(stderr, "golden_test: unknown flag %s\n", argv[i]);
      return 2;
    }
    wow::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
