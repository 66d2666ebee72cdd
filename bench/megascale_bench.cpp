// PR7 scale benchmark (DESIGN §14, EXPERIMENTS PR 7): paired
// interleaved rounds of the full-service default profile (exact
// per-datagram delivery) against the megascale flyweight profile
// (protocol-only nodes + batched per-host delivery) at each requested
// scale, plus an optional bounded-horizon 1M-node memory
// demonstration.  Emits BENCH_PR7.json.
//
// Methodology: within a round the two arms run back to back on the
// same seed (paired), and rounds interleave the arms (A B A B ...) so
// machine drift lands on both sides evenly — single runs on shared
// hosts vary by tens of percent (BENCH_PR2).  Exits non-zero if any
// flyweight arm fails to converge, goes oracle-red, or busts the
// 1 KiB/node protocol-state budget, so CI can run it as a guard.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.h"
#include "tools/tool_flags.h"
#include "wow/fleet.h"

namespace wow {
namespace {

constexpr double kProtocolBudgetBytes = 1024.0;
/// The megascale testbed spans four WAN sites (DESIGN §14).
constexpr int kSites = 4;

/// Resident set size from /proc/self/statm (0 where unsupported).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0;
  long pages_rss = 0;
  int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_rss);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(pages_rss) * 4096u;
}

struct RunResult {
  bool converged = false;
  double converge_sim_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double events_per_wall_s = 0.0;
  double node_bytes_per_node = 0.0;
  double protocol_bytes_per_node = 0.0;
  std::size_t network_bytes = 0;
  Fleet::HopStats hops;
  bool oracle_ok = false;
};

RunResult run_arm(int nodes, bool flyweight, std::uint64_t seed,
                  SimDuration stagger, SimDuration settle) {
  auto t0 = std::chrono::steady_clock::now();
  Fleet net(FleetConfig{.seed = seed,
                        .nodes = nodes,
                        .sites = kSites,
                        .node = flyweight ? p2p::NodeConfig::flyweight()
                                          : p2p::NodeConfig{},
                        .wellknown = 0,
                        .batched = flyweight});
  std::optional<SimTime> converged_at =
      net.run_until_converged(stagger, 30 * kSecond);
  // The memory budget is a steady-state claim: let the retention sweep
  // drain join transients before measuring.
  net.sim.run_for(settle);
  auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.converged = converged_at.has_value();
  r.converge_sim_s = converged_at ? to_seconds(*converged_at) : 0.0;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = net.sim.executed_events();
  r.events_per_wall_s =
      r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  Fleet::MemoryReport mem = net.memory_report();
  r.node_bytes_per_node = mem.node_bytes_per_node();
  r.protocol_bytes_per_node = mem.protocol_bytes_per_node();
  r.network_bytes = mem.network_bytes;
  if (r.converged) {
    r.hops = net.sample_greedy_hops(2000);
    r.oracle_ok = net.oracle(/*route_pairs=*/2000).ok;
  }
  return r;
}

void print_run(std::FILE* out, const char* key, const RunResult& r,
               bool trailing_comma) {
  std::fprintf(out,
               "        \"%s\": {\n"
               "          \"converged\": %s,\n"
               "          \"converge_sim_s\": %.1f,\n"
               "          \"wall_s\": %.2f,\n"
               "          \"executed_events\": %llu,\n"
               "          \"events_per_wall_s\": %.0f,\n"
               "          \"node_bytes_per_node\": %.0f,\n"
               "          \"protocol_bytes_per_node\": %.1f,\n"
               "          \"network_fabric_bytes\": %zu,\n"
               "          \"hops\": {\"mean\": %.2f, \"p50\": %.0f, "
               "\"p95\": %.0f, \"p99\": %.0f, \"max\": %.0f, "
               "\"unreached\": %zu},\n"
               "          \"oracle_ok\": %s\n"
               "        }%s\n",
               key, r.converged ? "true" : "false", r.converge_sim_s,
               r.wall_s, static_cast<unsigned long long>(r.events),
               r.events_per_wall_s, r.node_bytes_per_node,
               r.protocol_bytes_per_node, r.network_bytes, r.hops.mean,
               r.hops.p50, r.hops.p95, r.hops.p99, r.hops.max,
               r.hops.unreached, r.oracle_ok ? "true" : "false",
               trailing_comma ? "," : "");
}

}  // namespace
}  // namespace wow

int main(int argc, char** argv) {
  using namespace wow;
  std::vector<int> scales = {10000, 100000};
  int rounds = 2;
  int stagger_ms = 20;
  int settle_min = 10;
  bool skip_baseline = false;
  bool skip_demo = false;
  int demo_nodes = 1000000;
  int demo_stagger_us = 2000;
  std::string out_path = "BENCH_PR7.json";
  tools::FlagSet flags("megascale_bench", "");
  flags.value("scales", scales, "fleet sizes");
  flags.value("rounds", rounds, "paired rounds per scale");
  flags.value("stagger-ms", stagger_ms, "join stagger per node");
  flags.value("settle-min", settle_min, "sim minutes after convergence");
  flags.flag("skip-baseline", skip_baseline, "run the flyweight arm only");
  flags.flag("skip-demo", skip_demo, "skip the 1M-node demonstration");
  flags.value("demo-nodes", demo_nodes, "demonstration fleet size");
  flags.value("demo-stagger-us", demo_stagger_us, "join stagger per demo node");
  flags.value("out", out_path, "BENCH JSON output file; empty for stdout");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  SimDuration stagger = stagger_ms * kMillisecond;
  SimDuration settle = settle_min * kMinute;
  SimDuration demo_stagger = demo_stagger_us * kMicrosecond;

  bool guard_failed = false;

  // The 1M demonstration runs FIRST so its resident-set figure is not
  // inflated by allocator retention from earlier rounds.
  struct DemoResult {
    RunResult run;
    std::size_t rss = 0;
    int nodes = 0;
  };
  std::optional<DemoResult> demo;
  if (!skip_demo) {
    std::fprintf(stderr, "demo: %d flyweight nodes (bounded horizon)\n",
                 demo_nodes);
    DemoResult d;
    d.nodes = demo_nodes;
    d.run = run_arm(demo_nodes, /*flyweight=*/true, /*seed=*/1,
                    demo_stagger, /*settle=*/5 * kMinute);
    d.rss = rss_bytes();
    demo = d;
    std::fprintf(stderr,
                 "demo: converged=%d proto=%.0f B/node rss=%.2f GB "
                 "wall=%.0fs (%.2fM ev/s)\n",
                 int(d.run.converged), d.run.protocol_bytes_per_node,
                 static_cast<double>(d.rss) / 1e9, d.run.wall_s,
                 d.run.events_per_wall_s / 1e6);
    if (d.run.protocol_bytes_per_node > kProtocolBudgetBytes) {
      guard_failed = true;
    }
  }

  // scale -> round -> {baseline, megascale}
  struct Round {
    RunResult baseline;
    RunResult megascale;
  };
  std::vector<std::vector<Round>> results(scales.size());
  for (std::size_t s = 0; s < scales.size(); ++s) {
    for (int r = 0; r < rounds; ++r) {
      Round round;
      std::uint64_t seed = 100 + static_cast<std::uint64_t>(r);
      if (!skip_baseline) {
        std::fprintf(stderr, "scale %d round %d: baseline...\n", scales[s],
                     r + 1);
        round.baseline = run_arm(scales[s], /*flyweight=*/false, seed,
                                 stagger, settle);
        std::fprintf(stderr, "  baseline: wall=%.1fs %.2fM ev/s %.0f B/node\n",
                     round.baseline.wall_s,
                     round.baseline.events_per_wall_s / 1e6,
                     round.baseline.protocol_bytes_per_node);
      }
      std::fprintf(stderr, "scale %d round %d: megascale...\n", scales[s],
                   r + 1);
      round.megascale = run_arm(scales[s], /*flyweight=*/true, seed,
                                stagger, settle);
      std::fprintf(stderr, "  megascale: wall=%.1fs %.2fM ev/s %.0f B/node\n",
                   round.megascale.wall_s,
                   round.megascale.events_per_wall_s / 1e6,
                   round.megascale.protocol_bytes_per_node);
      if (!round.megascale.converged || !round.megascale.oracle_ok ||
          round.megascale.protocol_bytes_per_node > kProtocolBudgetBytes) {
        guard_failed = true;
      }
      results[s].push_back(round);
    }
  }

  std::FILE* out =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"pr\": 7,\n"
      "  \"title\": \"Megascale overlay: flyweight node profile and "
      "memory-lean simulation to 100k-1M nodes\",\n"
      "  \"build\": {\"type\": \"Release\", \"compiler\": \"g++\", "
      "\"binary\": \"bench/megascale_bench\"},\n"
      "  \"methodology\": \"Paired interleaved rounds: per scale and "
      "round, the full-service default profile (near_per_side=2, "
      "far_target=4, relay/shortcut/adaptive on, per-node metrics, exact "
      "per-datagram delivery) and the flyweight megascale profile "
      "(NodeConfig::flyweight + batched per-host delivery) run back to "
      "back on the same seed; rounds interleave arms so machine drift "
      "cancels. Each run ramps joins at one node per %lld ms, runs to "
      "ring convergence (every node running, and the Oracle's ring "
      "invariants holding: routable where achievable, one ring "
      "component, both near pointers at the true live neighbours; "
      "checked every 30 s), then settles %lld sim-minutes so the retention sweep "
      "drains join transients before bytes/node accounting. events/s = "
      "simulator events executed / wall seconds for the whole run; "
      "protocol_bytes_per_node is live dynamic state (connection table, "
      "keepalive episodes, pending CTMs, relay ledgers, flight ring) "
      "from Node::memory_footprint, budget %.0f B. Greedy hop stats "
      "sample 2000 random pairs over the real tables; oracle_ok is the "
      "structural invariant sweep. The 1M demonstration is flyweight-"
      "only on a bounded horizon with resident-set size from "
      "/proc/self/statm, run before all rounds so allocator retention "
      "cannot inflate it.\",\n",
      static_cast<long long>(stagger / kMillisecond),
      static_cast<long long>(settle / kMinute), kProtocolBudgetBytes);

  if (demo) {
    std::fprintf(out,
                 "  \"demo_1m\": {\n"
                 "    \"nodes\": %d,\n"
                 "    \"join_stagger_us\": %lld,\n"
                 "    \"rss_bytes\": %zu,\n"
                 "    \"rss_bytes_per_node\": %.0f,\n",
                 demo->nodes,
                 static_cast<long long>(demo_stagger / kMicrosecond),
                 demo->rss,
                 demo->nodes > 0 ? static_cast<double>(demo->rss) /
                                       static_cast<double>(demo->nodes)
                                 : 0.0);
    print_run(out, "run", demo->run, /*trailing_comma=*/false);
    // print_run indents for the scales block; close at demo depth.
    std::fprintf(out, "  },\n");
  }

  std::fprintf(out, "  \"scales\": [\n");
  for (std::size_t s = 0; s < scales.size(); ++s) {
    std::fprintf(out,
                 "    {\n"
                 "      \"nodes\": %d,\n"
                 "      \"rounds\": [\n",
                 scales[s]);
    for (std::size_t r = 0; r < results[s].size(); ++r) {
      std::fprintf(out, "      {\n");
      if (!skip_baseline) {
        print_run(out, "baseline", results[s][r].baseline,
                  /*trailing_comma=*/true);
      }
      print_run(out, "megascale", results[s][r].megascale,
                /*trailing_comma=*/false);
      std::fprintf(out, "      }%s\n",
                   r + 1 < results[s].size() ? "," : "");
    }
    std::fprintf(out,
                 "      ]\n"
                 "    }%s\n",
                 s + 1 < scales.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"guard\": {\"criterion\": \"every flyweight arm "
               "converges, oracle-green, protocol state <= %.0f B/node\", "
               "\"passed\": %s}\n"
               "}\n",
               kProtocolBudgetBytes, guard_failed ? "false" : "true");
  if (out != stdout) std::fclose(out);

  return guard_failed ? 1 : 0;
}
