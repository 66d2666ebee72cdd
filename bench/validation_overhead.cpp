// Defense-plane overhead guard: proves the byzantine self-defense
// checks (DESIGN §16) stay off the hot path's critical cost, and fails
// loudly when they regress.
//
// The only defense code a forwarded frame touches is the control-frame
// classification + per-endpoint token-bucket lookup in Node's receive
// path (the ledger, replay window, and identity checks all sit on the
// far rarer control-frame branches).  This bench runs the same
// converged-overlay traffic scenario with `defenses_enabled` on and
// off, times ONLY the traffic phase (formation is excluded), and
// divides by the fleet-wide forwarded+delivered hop count to get a
// per-hop figure comparable to the PR 2 zero-copy forwarding budget.
//
// Rounds interleave off/on (the BENCH_PR2 methodology: single runs
// vary tens of percent on shared hosts, so only paired interleaved
// medians give honest ratios).  The defenses-on median must stay
// within --budget percent of the defenses-off median or the binary
// exits 1.  Run it from a Release build.
//
// Exit status: 0 within budget, 1 over budget, 2 bad flags.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/network.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "tools/tool_flags.h"
#include "wow/fleet.h"

namespace {

using namespace wow;

struct ScenarioStats {
  double traffic_wall_seconds = 0.0;
  std::uint64_t hops = 0;  // forwarded + delivered during traffic phase
  std::uint64_t rate_limit_sheds = 0;
  std::uint64_t executed_events = 0;
};

/// Converge an all-public overlay, then drive address-wise-far traffic
/// so most frames cross several hops.  Only the traffic phase is
/// timed; the two configurations differ in nothing but
/// `defenses_enabled`, so the per-hop delta IS the validation cost.
ScenarioStats run_scenario(int node_count, bool defenses, int bursts) {
  p2p::NodeConfig node;
  node.defenses_enabled = defenses;
  node.register_node_metrics = false;  // measure protocol, not registry
  Fleet fleet(FleetConfig{.seed = 4242,
                          .nodes = node_count,
                          .sites = 1,
                          .node = node,
                          .wellknown = 1});
  fleet.network.set_default_wan(
      net::LinkModel{30 * kMillisecond, 2 * kMillisecond, 0.0});
  sim::Simulator& sim = fleet.sim;
  const auto& nodes = fleet.nodes;

  for (auto& n : nodes) n->start();
  sim.run_until(3 * kMinute);

  auto hop_count = [&] {
    std::uint64_t h = 0;
    for (const auto& n : nodes) {
      h += n->stats().data_forwarded + n->stats().data_delivered;
    }
    return h;
  };
  const std::uint64_t hops_before = hop_count();

  auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = nodes.size();
  for (int burst = 0; burst < bursts; ++burst) {
    for (std::size_t i = 0; i < n; ++i) {
      // Ring-distant targets: greedy routing crosses ~log(n) hops.
      std::size_t far = (i + n / 2 + static_cast<std::size_t>(burst)) % n;
      if (far == i) continue;
      // Dense bursts: forwarding work must dominate the timed phase,
      // or background maintenance noise swamps the per-hop delta.
      for (int k = 0; k < 32; ++k) {
        nodes[i]->send_data(nodes[far]->address(), Bytes{9, 9, 9, 9});
      }
    }
    sim.run_for(5 * kSecond);
  }
  sim.run_for(30 * kSecond);  // drain in-flight frames

  ScenarioStats out;
  out.traffic_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.hops = hop_count() - hops_before;
  for (const auto& node : nodes) {
    out.rate_limit_sheds += node->stats().rate_limit_sheds;
  }
  out.executed_events = sim.executed_events();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 7;
  int nodes = 32;
  int bursts = 24;
  // The defense code on the forwarded path is one kind-byte comparison
  // plus (for control frames only) a hash lookup + integer bucket
  // update; measured low single digits on a quiet host.  15% leaves
  // headroom for noisy CI runners while still catching a real
  // regression, and matches the PR 6 telemetry guard's budget shape.
  double budget_pct = 15.0;
  bool json = false;
  wow::tools::FlagSet flags("validation_overhead", "");
  flags.value("rounds", rounds, "interleaved off/on rounds");
  flags.value("nodes", nodes, "overlay size");
  flags.value("bursts", bursts, "traffic bursts per round");
  flags.value("budget", budget_pct, "defenses-on overhead budget, %");
  flags.flag("json", json, "print the result as JSON");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  if (rounds < 3 || nodes < 8 || bursts < 1) {
    std::fprintf(stderr,
                 "validation_overhead: need --rounds>=3 --nodes>=8 "
                 "--bursts>=1\n");
    return 2;
  }

  // One warmup sweep primes caches/allocator before the timed rounds.
  (void)run_scenario(nodes, /*defenses=*/false, bursts);

  std::vector<double> off_ns;
  std::vector<double> on_ns;
  ScenarioStats off_last;
  ScenarioStats on_last;
  for (int r = 0; r < rounds; ++r) {
    off_last = run_scenario(nodes, /*defenses=*/false, bursts);
    on_last = run_scenario(nodes, /*defenses=*/true, bursts);
    if (off_last.hops == 0 || on_last.hops == 0) {
      std::fprintf(stderr, "validation_overhead: no hops measured\n");
      return 2;
    }
    off_ns.push_back(1e9 * off_last.traffic_wall_seconds /
                     static_cast<double>(off_last.hops));
    on_ns.push_back(1e9 * on_last.traffic_wall_seconds /
                    static_cast<double>(on_last.hops));
    std::fprintf(stderr,
                 "round %d/%d: off=%.1f ns/hop (%llu hops) "
                 "on=%.1f ns/hop (%llu hops)\n",
                 r + 1, rounds, off_ns.back(),
                 static_cast<unsigned long long>(off_last.hops),
                 on_ns.back(),
                 static_cast<unsigned long long>(on_last.hops));
  }

  const double off_med = percentile(off_ns, 50);
  const double on_med = percentile(on_ns, 50);
  const double pct = 100.0 * (on_med / off_med - 1.0);
  const bool within = pct <= budget_pct;
  // Honest traffic must never shed: a shed here means the rate limiter
  // is mis-sized and eating the workload, which would also corrupt the
  // measurement.
  const bool clean = on_last.rate_limit_sheds == 0;

  if (json) {
    std::printf(
        "{\n"
        "  \"nodes\": %d,\n"
        "  \"rounds\": %d,\n"
        "  \"bursts\": %d,\n"
        "  \"off_median_ns_per_hop\": %.2f,\n"
        "  \"on_median_ns_per_hop\": %.2f,\n"
        "  \"overhead_pct\": %.2f,\n"
        "  \"budget_pct\": %g,\n"
        "  \"within_budget\": %s,\n"
        "  \"hops_per_round\": %llu,\n"
        "  \"rate_limit_sheds\": %llu,\n"
        "  \"executed_events\": %llu\n"
        "}\n",
        nodes, rounds, bursts, off_med, on_med, pct, budget_pct,
        within && clean ? "true" : "false",
        static_cast<unsigned long long>(on_last.hops),
        static_cast<unsigned long long>(on_last.rate_limit_sheds),
        static_cast<unsigned long long>(on_last.executed_events));
  } else {
    std::printf(
        "validation_overhead: nodes=%d rounds=%d bursts=%d\n"
        "  defenses off %.1f ns/hop\n"
        "  defenses on  %.1f ns/hop (+%.2f%%, budget %g%%) -> %s\n"
        "  honest-traffic sheds: %llu (must be 0)\n",
        nodes, rounds, bursts, off_med, on_med, pct, budget_pct,
        within && clean ? "OK" : "FAIL",
        static_cast<unsigned long long>(on_last.rate_limit_sheds));
  }
  if (!within) {
    std::fprintf(stderr,
                 "validation_overhead: FAIL — defenses-on %.2f%% exceeds "
                 "the %g%% budget\n",
                 pct, budget_pct);
    return 1;
  }
  if (!clean) {
    std::fprintf(stderr,
                 "validation_overhead: FAIL — rate limiter shed %llu "
                 "honest control frames\n",
                 static_cast<unsigned long long>(on_last.rate_limit_sheds));
    return 1;
  }
  return 0;
}
