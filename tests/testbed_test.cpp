#include <gtest/gtest.h>

#include "middleware/nfs.h"
#include "middleware/pbs.h"
#include "wow/testbed.h"

namespace wow {
namespace {

class TestbedTest : public ::testing::Test {
 protected:
  TestbedTest() {
    TestbedConfig cfg;
    cfg.seed = 42;
    // Keep the bootstrap overlay small for unit-test speed; full scale
    // (118 routers / 20 hosts) is exercised by the benches.
    cfg.planetlab_routers = 30;
    cfg.planetlab_hosts = 10;
    bed = std::make_unique<Testbed>(cfg);
    sim = &bed->simulator();
  }

  std::unique_ptr<Testbed> bed;
  sim::Simulator* sim = nullptr;
};

TEST_F(TestbedTest, AllComputeNodesBecomeRoutable) {
  bed->start_all();
  // UFL-UFL near links can need a couple of ~160 s public-URI timeouts
  // (the paper's footnote-2 linking behaviour) before the private URI
  // connects, so allow a generous convergence window.
  sim->run_for(10 * kMinute);
  EXPECT_EQ(bed->routable_compute_nodes(), 33);
}

TEST_F(TestbedTest, CrossDomainPingWorks) {
  bed->start_all();
  sim->run_for(5 * kMinute);

  // UFL node 2 pings NWU node 17 across two NATs.
  auto& a = bed->node(2);
  auto& b = bed->node(17);
  int replies = 0;
  a.icmp->set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                std::uint16_t, SimDuration) {
    if (from == b.vip()) ++replies;
  });
  for (int i = 1; i <= 5; ++i) {
    a.icmp->ping(b.vip(), 7, static_cast<std::uint16_t>(i));
    sim->run_for(kSecond);
  }
  sim->run_for(5 * kSecond);
  EXPECT_GE(replies, 4);  // WAN loss may eat one
}

TEST_F(TestbedTest, FirewalledAndNestedNatNodesAreReachable) {
  bed->start_all();
  sim->run_for(8 * kMinute);

  auto& a = bed->node(3);
  int got32 = 0, got34 = 0;
  a.icmp->set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                std::uint16_t, SimDuration) {
    if (from == bed->node(32).vip()) ++got32;  // ncgrid firewall
    if (from == bed->node(34).vip()) ++got34;  // triple-NAT home node
  });
  for (int i = 1; i <= 5; ++i) {
    a.icmp->ping(bed->node(32).vip(), 1, static_cast<std::uint16_t>(i));
    a.icmp->ping(bed->node(34).vip(), 2, static_cast<std::uint16_t>(i));
    sim->run_for(kSecond);
  }
  sim->run_for(10 * kSecond);
  EXPECT_GE(got32, 3);
  EXPECT_GE(got34, 3);
}

TEST_F(TestbedTest, SustainedTrafficCreatesShortcutAndCutsLatency) {
  bed->start_all();
  sim->run_for(5 * kMinute);

  // Pick a UFL/NWU pair with no pre-existing direct connection so the
  // latency transition is observable.
  Testbed::ComputeNode* a = nullptr;
  Testbed::ComputeNode* b = nullptr;
  for (int i = 2; i <= 16 && a == nullptr; ++i) {
    for (int j = 17; j <= 29; ++j) {
      auto& x = bed->node(i);
      auto& y = bed->node(j);
      if (!x.ipop->p2p().has_direct(y.ipop->p2p().address()) &&
          !y.ipop->p2p().has_direct(x.ipop->p2p().address())) {
        a = &x;
        b = &y;
        break;
      }
    }
  }
  ASSERT_NE(a, nullptr) << "every UFL/NWU pair already connected";

  std::vector<double> rtts_ms;
  a->icmp->set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                 std::uint16_t, SimDuration rtt) {
    if (from == b->vip()) rtts_ms.push_back(to_millis(rtt));
  });
  for (int i = 1; i <= 120; ++i) {
    a->icmp->ping(b->vip(), 3, static_cast<std::uint16_t>(i));
    sim->run_for(kSecond);
  }
  sim->run_for(5 * kSecond);
  ASSERT_GT(rtts_ms.size(), 60u);

  // A shortcut must exist by the end and late RTTs must sit at the
  // direct-path level.  (The early-RTT multi-hop penalty needs the
  // full-scale router population and is asserted by the Fig. 4 bench,
  // not this scaled-down fixture, where an intermediate hop may land on
  // an unloaded same-site node.)
  EXPECT_TRUE(a->ipop->p2p().has_direct(b->ipop->p2p().address()));
  double early = rtts_ms[1];
  double late = rtts_ms[rtts_ms.size() - 5];
  EXPECT_LT(late, 45.0) << "direct path should be ~38 ms";
  EXPECT_GE(early + 2.0, late) << "latency must not get worse over time";
}

TEST_F(TestbedTest, ShortcutsDisabledKeepsMultiHopLatency) {
  TestbedConfig cfg;
  cfg.seed = 43;
  cfg.planetlab_routers = 30;
  cfg.planetlab_hosts = 10;
  cfg.shortcuts_enabled = false;
  Testbed bed2(cfg);
  sim::Simulator& sim2 = bed2.simulator();
  bed2.start_all();
  sim2.run_for(5 * kMinute);

  // Probe several UFL/NWU pairs without coincidental ring connections:
  // individual multi-hop paths can be short (one fast same-site
  // intermediate), but no pair may acquire a direct link and at least
  // some pairs must pay the loaded-router latency.
  struct Probe {
    Testbed::ComputeNode* a;
    Testbed::ComputeNode* b;
    std::vector<double> rtts;
  };
  std::vector<Probe> probes;
  for (int i = 2; i <= 16 && probes.size() < 4; ++i) {
    auto& x = bed2.node(i);
    auto& y = bed2.node(17 + static_cast<int>(probes.size()));
    if (!x.ipop->p2p().has_direct(y.ipop->p2p().address()) &&
        !y.ipop->p2p().has_direct(x.ipop->p2p().address())) {
      probes.push_back(Probe{&x, &y, {}});
    }
  }
  ASSERT_GE(probes.size(), 2u);
  for (auto& p : probes) {
    auto* rtts = &p.rtts;
    p.a->icmp->set_reply_handler([rtts](net::Ipv4Addr, std::uint16_t,
                                        std::uint16_t, SimDuration rtt) {
      rtts->push_back(to_millis(rtt));
    });
  }
  for (int i = 1; i <= 60; ++i) {
    for (auto& p : probes) {
      p.a->icmp->ping(p.b->vip(), 3, static_cast<std::uint16_t>(i));
    }
    sim2.run_for(kSecond);
  }
  sim2.run_for(5 * kSecond);
  double max_late = 0.0;
  for (auto& p : probes) {
    EXPECT_FALSE(p.a->ipop->p2p().has_direct(p.b->ipop->p2p().address()));
    ASSERT_GT(p.rtts.size(), 20u);
    max_late = std::max(max_late, p.rtts[p.rtts.size() - 5]);
  }
  EXPECT_GT(max_late, 45.0) << "without shortcuts latency stays multi-hop";
}

TEST_F(TestbedTest, MigrationPreservesVirtualIpConnectivity) {
  bed->start_all();
  // NATed near links can take several minutes of race/retry cycles;
  // probe the ring only once it has settled.
  sim->run_for(10 * kMinute);

  auto& mover = bed->node(3);   // starts at UFL
  auto& peer = bed->node(18);   // NWU observer
  net::Ipv4Addr vip = mover.vip();

  int replies = 0;
  peer.icmp->set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                   std::uint16_t, SimDuration) {
    if (from == vip) ++replies;
  });
  for (int i = 1; i <= 5 && replies == 0; ++i) {
    peer.icmp->ping(vip, 1, static_cast<std::uint16_t>(i));
    sim->run_for(5 * kSecond);
  }
  ASSERT_GE(replies, 1);

  bed->migrate(mover, /*to_ufl=*/false, 30 * kSecond, 0.83);
  sim->run_for(3 * kMinute);  // rejoin

  replies = 0;
  for (int i = 2; i <= 6; ++i) {
    peer.icmp->ping(vip, 1, static_cast<std::uint16_t>(i));
    sim->run_for(2 * kSecond);
  }
  sim->run_for(5 * kSecond);
  EXPECT_GE(replies, 3) << "virtual IP must survive migration";
  EXPECT_EQ(mover.vip(), vip);
}

TEST_F(TestbedTest, PbsMemeSmokeRun) {
  bed->start_all();
  sim->run_for(5 * kMinute);

  auto& head = bed->node(2);
  mw::NfsServer nfs(*sim, *head.tcp);
  mw::PbsServer pbs(*sim, *head.tcp, nfs);

  std::vector<std::unique_ptr<mw::PbsWorker>> workers;
  for (int i = 3; i <= 8; ++i) {
    auto& n = bed->node(i);
    workers.push_back(std::make_unique<mw::PbsWorker>(
        *sim, *n.tcp, *n.cpu, head.vip(), n.name));
    workers.back()->start();
  }
  sim->run_for(30 * kSecond);
  ASSERT_EQ(pbs.registered_workers(), 6u);

  for (std::uint64_t j = 0; j < 30; ++j) {
    sim->schedule(static_cast<SimDuration>(j) * kSecond, [&pbs, j] {
      mw::JobSpec spec;
      spec.id = j;
      spec.work_seconds = 5.0;
      spec.input_bytes = 200 * 1024;
      spec.output_bytes = 100 * 1024;
      pbs.qsub(spec);
    });
  }
  sim->run_for(10 * kMinute);
  EXPECT_EQ(pbs.completed().size(), 30u);
  for (const auto& record : pbs.completed()) {
    EXPECT_GT(record.wall_seconds(), 4.9);
    EXPECT_LT(record.wall_seconds(), 60.0);
  }
}

}  // namespace
}  // namespace wow
