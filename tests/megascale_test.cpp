// Megascale profile tests (DESIGN §14): ring convergence + oracle
// sweep on the flyweight protocol-only profile, greedy hop sanity, and
// the bytes/node accounting budget.
#include <gtest/gtest.h>

#include "common/time.h"
#include "test_util.h"

namespace wow {
namespace {

using testing::megascale;

/// Ramped joins 50 ms apart, each fleet off random bootstrap pools,
/// with the ring checked every 10 s.
constexpr SimDuration kStagger = 50 * kMillisecond;
constexpr SimDuration kCheckPeriod = 10 * kSecond;

TEST(MegascaleTest, SmallFlyweightRingConvergesAndRoutes) {
  Fleet net(megascale(/*seed=*/7, /*n=*/64, /*wellknown=*/0));
  auto converged_at = net.run_until_converged(kStagger, kCheckPeriod);
  ASSERT_TRUE(converged_at.has_value()) << "64-node ring did not converge";

  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/500);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();

  Fleet::HopStats hops = net.sample_greedy_hops(400);
  EXPECT_EQ(hops.unreached, 0u);
  EXPECT_GT(hops.sampled, 0u);
  EXPECT_GE(hops.mean, 1.0);
}

TEST(MegascaleTest, DefaultProfileAlsoConverges) {
  FleetConfig cfg = megascale(/*seed=*/11, /*n=*/48, /*wellknown=*/0,
                              p2p::NodeConfig{});
  cfg.batched = false;  // the exact, non-batched event path
  Fleet net(cfg);
  auto converged_at = net.run_until_converged(kStagger, kCheckPeriod);
  ASSERT_TRUE(converged_at.has_value()) << "48-node default ring stuck";
  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/300);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();
}

// The loop waits for the Oracle's ring, not for successor pointers
// alone.  This crowd closes its successor walk at t=24 s while node
// d401b6a9's predecessor is still ca7eefce (near_is_live_predecessor);
// the ring is legitimate a second later.
TEST(MegascaleTest, ConvergedRingIsOracleGreen) {
  Fleet net(megascale(/*seed=*/45, /*n=*/256, /*wellknown=*/3));
  net.start_all();
  auto converged_at = net.run_until_converged(/*join_stagger=*/0, kSecond);
  ASSERT_TRUE(converged_at.has_value());
  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/2000);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();
}

TEST(MegascaleTest, FlyweightProtocolStateWithinBudget) {
  // The §14 budget: live dynamic protocol state (connections held,
  // pending operations, health records, flight ring) must average
  // under 1 KB per flyweight node once the ring is steady.
  constexpr double kBudgetBytesPerNode = 1024.0;
  Fleet net(megascale(/*seed=*/3, /*n=*/512, /*wellknown=*/0));
  auto converged_at = net.run_until_converged(kStagger, kCheckPeriod);
  ASSERT_TRUE(converged_at.has_value());
  // Let keepalives and stabilization run a few rounds so steady-state
  // state (ping episodes, pending CTMs) is represented, not just the
  // fresh-join minimum.
  net.sim.run_for(5 * kMinute);

  Fleet::MemoryReport mem = net.memory_report();
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
  Fleet net(megascale(/*seed=*/5, /*n=*/32, /*wellknown=*/0));
  auto converged_at = net.run_until_converged(kStagger, kCheckPeriod);
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
  Fleet net(megascale(/*seed=*/1, /*n=*/10000, /*wellknown=*/0));
  auto converged_at =
      net.run_until_converged(20 * kMillisecond, 30 * kSecond);
  ASSERT_TRUE(converged_at.has_value()) << "10k-node ring did not converge";

  p2p::OracleReport oracle = net.oracle(/*route_pairs=*/5000);
  EXPECT_TRUE(oracle.ok) << oracle.to_string();

  Fleet::HopStats hops = net.sample_greedy_hops(2000);
  EXPECT_EQ(hops.unreached, 0u);
  // O((1/k)·log²n) with k=2, log2(10^4)≈13.3 → ~45 hops upper shape;
  // the observed mean sits well under it on a closed ring.
  EXPECT_LT(hops.mean, 45.0);

  // The budget is a steady-state claim: give the retention sweep a few
  // maintenance rounds to drain join-transient links before measuring.
  net.sim.run_for(10 * kMinute);
  Fleet::MemoryReport mem = net.memory_report();
  EXPECT_LE(mem.protocol_bytes_per_node(), 1024.0);
#endif
}

}  // namespace
}  // namespace wow
