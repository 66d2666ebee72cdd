// Seeded chaos soak: randomized fault schedules against a multi-site
// overlay, with the invariant oracle as the pass/fail judge.  Every
// failure message carries the (seed, schedule) reproducer accepted by
// tools/chaos_runner.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/faults.h"
#include "p2p/oracle.h"
#include "test_util.h"

namespace wow {
namespace {

net::FaultPlan::RandomParams soak_params(const Fleet& net) {
  net::FaultPlan::RandomParams params;
  params.events = 10;
  params.start = 3 * kMinute;  // let the ring form first
  params.horizon = 10 * kMinute;
  params.sites = net.sites;
  // Only the back half of the fleet may freeze or crash: node 0 is the
  // bootstrap every restarted node rejoins through.
  for (std::size_t i = net.nodes.size() / 2; i < net.nodes.size(); ++i) {
    params.hosts.push_back(net.hosts[i]->id());
  }
  return params;
}

TEST(FaultPlan, SeededGenerationIsDeterministic) {
  net::FaultPlan::RandomParams params;
  params.sites = {0, 1, 2};
  params.nat_domains = {1};
  params.hosts = {3, 4, 5};
  auto a = net::FaultPlan::random(97, params);
  auto b = net::FaultPlan::random(97, params);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.events.size(), static_cast<std::size_t>(params.events));
  auto c = net::FaultPlan::random(98, params);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, DescribeParseRoundTrip) {
  net::FaultPlan::RandomParams params;
  params.sites = {0, 1, 2, 3};
  params.nat_domains = {1, 2};
  params.hosts = {0, 1, 2, 3, 4};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    auto plan = net::FaultPlan::random(seed, params);
    auto parsed = net::FaultPlan::parse(plan.describe());
    ASSERT_TRUE(parsed.has_value()) << plan.describe();
    EXPECT_EQ(parsed->describe(), plan.describe());
  }
}

TEST(FaultPlan, ParseRejectsMalformedSchedules) {
  EXPECT_FALSE(net::FaultPlan::parse("bogus@100").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("part@").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("part@100+20").has_value());  // no sites
  EXPECT_FALSE(net::FaultPlan::parse("flap@100+20:1").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("storm@100+20:50").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("dup@100+20:nan").has_value());
  EXPECT_FALSE(net::FaultPlan::parse(";;").has_value());
  // Times are bounded by a simulated century (3,153,600,000,000 ms), so
  // no conversion or start-plus-duration sum overflows.
  EXPECT_FALSE(net::FaultPlan::parse("part@10000000000000000+1:0").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("part@1+10000000000000000:0").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("part@3153600000001:0").has_value());
  EXPECT_FALSE(
      net::FaultPlan::parse("storm@1+1:10000000000000000,0.1").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("storm@1+1:-5,0.1").has_value());
  EXPECT_FALSE(
      net::FaultPlan::parse("reorder@1+1:0.1,10000000000000000").has_value());
  EXPECT_TRUE(net::FaultPlan::parse("part@3153600000000+3153600000000:0")
                  .has_value());
  // An id past int's range is refused, not wrapped onto a real id.
  EXPECT_FALSE(net::FaultPlan::parse("natreboot@1000:4294967297").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("crash@1+5:4294967296").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("part@1+5:4294967298").has_value());
  EXPECT_FALSE(net::FaultPlan::parse("flap@1+5:0-4294967297").has_value());
  // And the empty plan is valid (vacuously healthy).
  auto empty = net::FaultPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->events.empty());
}

/// A WAN partition shorter than the keepalive grace: connections ride it
/// out or are repaired; either way the oracle must be green again after
/// the heal window.
TEST(Chaos, PartitionHealsAndOracleConverges) {
  testing::ThreeSiteOverlay net(11);
  net.start_all();
  net.sim.run_until(3 * kMinute);

  net::FaultSpec part;
  part.kind = net::FaultKind::kPartition;
  part.at = net.sim.now();
  part.duration = kMinute;
  part.sites = {net.sites[0]};  // site 0 vs the rest
  net.network.faults().inject(part);
  EXPECT_EQ(net.network.faults().active_faults(), 1u);
  EXPECT_TRUE(net.network.faults().partitioned(net.sites[0], net.sites[1]));
  EXPECT_FALSE(net.network.faults().partitioned(net.sites[1], net.sites[2]));

  net.sim.run_for(kMinute + kSecond);  // heal
  EXPECT_EQ(net.network.faults().active_faults(), 0u);
  // Keepalives crossed the cut while it was up, so drops were recorded.
  EXPECT_GT(net.network.stats().drops(
                net::Network::DropReason::kPartition), 0u);
  net.sim.run_for(4 * kMinute);  // repair window

  auto report = net.oracle(0);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_GT(net.network.faults().stats().faults_healed, 0u);
}

/// Satellite: datagram duplication must be protocol-invisible — no
/// double connections from replayed handshakes, no teardown from
/// replayed keepalives, ring intact afterwards.
TEST(Chaos, DuplicateDeliveryIsTolerated) {
  testing::PublicOverlay net(8, /*seed=*/21);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  ASSERT_EQ(net.routable_count(), 8);

  std::uint64_t lost_before = 0;
  for (const auto& n : net.nodes) lost_before += n->stats().connections_lost;

  net::FaultSpec dup;
  dup.kind = net::FaultKind::kDuplicate;
  dup.at = net.sim.now();
  dup.duration = 3 * kMinute;
  dup.rate = 0.5;
  net.network.faults().inject(dup);

  for (int burst = 0; burst < 9; ++burst) {
    for (std::size_t i = 0; i < net.nodes.size(); ++i) {
      std::size_t peer = (i + 1 + static_cast<std::size_t>(burst)) %
                         net.nodes.size();
      net.nodes[i]->send_data(net.nodes[peer]->address(), Bytes{42});
    }
    net.sim.run_for(20 * kSecond);
  }
  net.sim.run_for(kMinute);

  EXPECT_GT(net.network.faults().stats().duplicated, 0u);
  EXPECT_EQ(net.routable_count(), 8);

  // No spurious teardown: replayed pings/CTMs/link frames never look
  // like failures.
  std::uint64_t lost_after = 0;
  for (const auto& n : net.nodes) lost_after += n->stats().connections_lost;
  EXPECT_EQ(lost_after, lost_before);

  // No double-connect: at most one connection per (peer, type).
  for (const auto& n : net.nodes) {
    std::set<std::string> seen;
    bool duplicate_entry = false;
    n->connections().for_each([&](const p2p::Connection& c) {
      duplicate_entry = duplicate_entry ||
          !seen.insert(c.addr.to_hex() + "/" + p2p::to_string(c.type)).second;
    });
    EXPECT_FALSE(duplicate_entry);
  }

  auto report = net.oracle(0);
  EXPECT_TRUE(report.ok) << report.to_string();
}

/// The oracle must catch a deliberately broken failure detector: with
/// keepalive effectively disabled, a crashed node's neighbors keep
/// routing at its corpse and the ring never heals.
TEST(Chaos, OracleCatchesBrokenKeepalive) {
  p2p::NodeConfig broken;
  broken.ping_interval = 10 * kMinute;  // failure detection disabled
  testing::PublicOverlay net(8, /*seed=*/31, broken);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  ASSERT_EQ(net.routable_count(), 8);

  net.nodes[3]->stop();  // kill -9, no Close frames
  net.sim.run_for(3 * kMinute);

  auto report = net.oracle(0);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("VIOLATION"), std::string::npos);
  EXPECT_NE(report.to_string().find("seed=31"), std::string::npos);
}

/// ...and the control: with the stock keepalive the same crash heals
/// within the same window, so the broken-build signal is the oracle,
/// not the scenario.
TEST(Chaos, HealthyKeepaliveRepairsSameCrash) {
  testing::PublicOverlay net(8, /*seed=*/31);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  ASSERT_EQ(net.routable_count(), 8);

  net.nodes[3]->stop();
  // Detection alone costs a ping cycle (~75 s); give repair several more.
  net.sim.run_for(6 * kMinute);

  auto report = net.oracle(0);
  EXPECT_TRUE(report.ok) << report.to_string();
}

/// The soak proper: a seeded random schedule of partitions, flaps,
/// storms, duplication, reordering, corruption, freezes and crashes,
/// interleaved with steady traffic.  After the last window heals the
/// oracle must pass; a failure prints the chaos_runner reproducer.
TEST(Chaos, SeededSoakConvergesAfterHeal) {
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    testing::ThreeSiteOverlay net(seed);
    auto plan = net::FaultPlan::random(seed, soak_params(net));
    std::string reproducer = "reproduce: chaos_runner --seed=";
    reproducer.append(std::to_string(seed))
        .append(" --schedule=\"")
        .append(plan.describe())
        .append("\"");

    net.start_all();
    net.sim.run_until(3 * kMinute);
    net.network.faults().schedule(plan);

    // Steady background traffic across the fault horizon.
    for (int burst = 0; burst < 24; ++burst) {
      auto live = net.live();
      for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
        live[i]->send_data(live[i + 1]->address(), Bytes{7, 7});
      }
      net.sim.run_for(20 * kSecond);
    }

    ASSERT_EQ(net.network.faults().active_faults(), 0u) << reproducer;
    EXPECT_GT(net.network.faults().stats().faults_begun, 0u);
    EXPECT_EQ(net.network.faults().stats().faults_begun,
              net.network.faults().stats().faults_healed +
                  /*instantaneous NAT reboots*/ 0u +
                  net.network.faults().active_faults())
        << reproducer;

    net.sim.run_for(5 * kMinute);  // repair window

    EXPECT_EQ(net.live().size(), net.nodes.size()) << reproducer;
    auto report = net.oracle(0);
    EXPECT_TRUE(report.ok) << report.to_string() << "\n  " << reproducer;
  }
}

}  // namespace
}  // namespace wow
