// Megascale profile tests (DESIGN §14): ring convergence + oracle
// sweep on the flyweight protocol-only profile, greedy hop sanity, and
// the bytes/node accounting budget.
#include "wow/megascale.h"

#include <gtest/gtest.h>

#include "common/time.h"

namespace wow {
namespace {

MegascaleConfig small_config(int nodes, std::uint64_t seed) {
  MegascaleConfig cfg;
  cfg.seed = seed;
  cfg.nodes = nodes;
  cfg.flyweight = true;
  cfg.batched_delivery = true;
  cfg.join_stagger = 50 * kMillisecond;
  cfg.check_period = 10 * kSecond;
  return cfg;
}

TEST(MegascaleTest, SmallFlyweightRingConvergesAndRoutes) {
  MegascaleNet net(small_config(64, 7));
  auto converged_at = net.run_until_converged();
  ASSERT_TRUE(converged_at.has_value()) << "64-node ring did not converge";

  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/500);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();

  MegascaleNet::HopStats hops = net.sample_greedy_hops(400);
  EXPECT_EQ(hops.unreached, 0u);
  EXPECT_GT(hops.sampled, 0u);
  EXPECT_GE(hops.mean, 1.0);
}

TEST(MegascaleTest, DefaultProfileAlsoConverges) {
  MegascaleConfig cfg = small_config(48, 11);
  cfg.flyweight = false;
  cfg.batched_delivery = false;  // the exact, non-batched event path
  MegascaleNet net(cfg);
  auto converged_at = net.run_until_converged();
  ASSERT_TRUE(converged_at.has_value()) << "48-node default ring stuck";
  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/300);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();
}

TEST(MegascaleTest, FlyweightProtocolStateWithinBudget) {
  // The §14 budget: live dynamic protocol state (connections held,
  // pending operations, health records, flight ring) must average
  // under 1 KB per flyweight node once the ring is steady.
  constexpr double kBudgetBytesPerNode = 1024.0;
  MegascaleNet net(small_config(512, 3));
  auto converged_at = net.run_until_converged();
  ASSERT_TRUE(converged_at.has_value());
  // Let keepalives and stabilization run a few rounds so steady-state
  // state (ping episodes, pending CTMs) is represented, not just the
  // fresh-join minimum.
  net.sim.run_for(5 * kMinute);

  MegascaleNet::MemoryReport mem = net.memory_report();
  EXPECT_EQ(mem.nodes, 512u);
  EXPECT_GT(mem.protocol_state_bytes, 0u);
  EXPECT_LE(mem.protocol_bytes_per_node(), kBudgetBytesPerNode)
      << "flyweight live protocol state blew the 1 KB/node budget: "
      << mem.protocol_bytes_per_node() << " B/node";
  // The flyweight gates must hold: no per-node metrics were registered,
  // and a converged fleet's footprint includes the network fabric.
  EXPECT_GT(mem.network_bytes, 0u);
}

TEST(MegascaleTest, FlyweightKeepsDurableHealthEmpty) {
  // With adaptive timers and quarantine both off, note_rtt must not
  // grow the per-peer health map (the keepalive memory gate).
  MegascaleNet net(small_config(32, 5));
  auto converged_at = net.run_until_converged();
  ASSERT_TRUE(converged_at.has_value());
  net.sim.run_for(5 * kMinute);  // several keepalive rounds
  for (const auto& n : net.nodes) {
    p2p::Node::MemoryFootprint f = n->memory_footprint();
    // keepalive component = object + state; state must be only the
    // bounded ping episodes (< 100 B each, ~5 connections), never an
    // unbounded health ledger.
    EXPECT_LT(f.keepalive, sizeof(p2p::Node) + 1024u);
  }
}

// The acceptance-scale run: 10k nodes converge oracle-green.  Too slow
// without optimization, so it only runs in Release-family builds.
TEST(MegascaleTest, TenThousandNodeRingOracleGreen) {
#ifndef NDEBUG
  GTEST_SKIP() << "10k-node convergence needs an optimized build";
#else
  MegascaleConfig cfg = small_config(10000, 1);
  cfg.join_stagger = 20 * kMillisecond;
  cfg.check_period = 30 * kSecond;
  MegascaleNet net(cfg);
  auto converged_at = net.run_until_converged();
  ASSERT_TRUE(converged_at.has_value()) << "10k-node ring did not converge";

  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/5000);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();

  MegascaleNet::HopStats hops = net.sample_greedy_hops(2000);
  EXPECT_EQ(hops.unreached, 0u);
  // O((1/k)·log²n) with k=2, log2(10^4)≈13.3 → ~45 hops upper shape;
  // the observed mean sits well under it on a closed ring.
  EXPECT_LT(hops.mean, 45.0);

  // The budget is a steady-state claim: give the retention sweep a few
  // maintenance rounds to drain join-transient links before measuring.
  net.sim.run_for(10 * kMinute);
  MegascaleNet::MemoryReport mem = net.memory_report();
  EXPECT_LE(mem.protocol_bytes_per_node(), 1024.0);
#endif
}

}  // namespace
}  // namespace wow
