// PR10 convergence curves: time-to-single-ring versus crowd size.
//
// The real-clock runtime (wowd over UDP) and the simulator share every
// protocol layer, so the simulated flash-crowd convergence curve is the
// capacity-planning number for a deployment: how long after "everyone
// boots at once" does the overlay become one ring.  Each crowd size
// starts all nodes in the same sim instant (join_stagger = 0) against a
// small well-known bootstrap set — the wowd deployment shape — and runs
// until the Oracle finds one legitimate ring.  Emits BENCH_PR10.json.
//
// Methodology: per size, `rounds` independent seeds; the per-size line
// reports the median round plus the per-round spread.  Convergence time
// is quantized by the check period (default 1 s), which bounds the
// measurement error; wall time is reported for context only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "tools/tool_flags.h"
#include "wow/fleet.h"

namespace wow {
namespace {

struct RoundResult {
  bool converged = false;
  double converge_sim_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t rings = 0;
  Fleet::JoinStats join;
};

RoundResult run_round(int nodes, std::uint64_t seed, int wellknown,
                      SimDuration check_period) {
  auto t0 = std::chrono::steady_clock::now();
  Fleet net(FleetConfig{.seed = seed,
                        .nodes = nodes,
                        .sites = 4,
                        .node = p2p::NodeConfig::flyweight(),
                        .wellknown = wellknown,
                        .batched = true});
  net.start_all();  // the flash crowd: everyone boots at once
  std::optional<SimTime> converged_at =
      net.run_until_converged(/*join_stagger=*/0, check_period);
  auto t1 = std::chrono::steady_clock::now();

  RoundResult r;
  r.converged = converged_at.has_value();
  r.converge_sim_s = converged_at ? to_seconds(*converged_at) : 0.0;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = net.sim.executed_events();
  r.rings = net.ring_census();
  r.join = net.join_latency_stats();
  return r;
}

}  // namespace
}  // namespace wow

int main(int argc, char** argv) {
  using namespace wow;
  std::vector<int> sizes = {100, 300, 1000, 3000};
  int rounds = 3;
  int wellknown = 3;
  int check_ms = 1000;
  std::string out_path = "BENCH_PR10.json";
  tools::FlagSet flags("ring_convergence", "");
  flags.value("sizes", sizes, "crowd sizes");
  flags.value("rounds", rounds, "seeds per size");
  flags.value("wellknown", wellknown, "well-known bootstrap endpoints");
  flags.value("check-ms", check_ms, "convergence check period");
  flags.value("out", out_path, "BENCH JSON output file");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  SimDuration check_period = check_ms * kMillisecond;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  std::fprintf(
      out,
      "{\n"
      "  \"pr\": 10,\n"
      "  \"title\": \"Real-clock runtime: UDP EdgeFactory, portable time "
      "seam, and the wowd daemon\",\n"
      "  \"date\": \"2026-08-08\",\n"
      "  \"build\": {\n"
      "    \"type\": \"Release\",\n"
      "    \"compiler\": \"g++\",\n"
      "    \"binary\": \"bench/ring_convergence\"\n"
      "  },\n"
      "  \"methodology\": \"Time-to-single-ring vs crowd size.  Every "
      "crowd starts in the same sim instant (join_stagger=0) against %d "
      "well-known bootstrap endpoints — the wowd deployment shape — and "
      "runs until every node runs and the Oracle's ring invariants hold "
      "(routable where achievable, one ring component, both near "
      "pointers at the true live neighbours).  Per size, %d independent seeds; the "
      "headline is the median round and join-latency percentiles come "
      "from the median round's per-node start-to-routable distribution.  "
      "Convergence checks run every %.1f s between run chunks, which "
      "quantizes (and bounds the error of) the reported time.  "
      "Flyweight node profile + batched delivery (BENCH_PR7): identical "
      "protocol stack to wowd, memory-lean fabric.\",\n"
      "  \"curve\": [\n",
      wellknown, rounds, to_seconds(check_period));

  bool all_converged = true;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    int n = sizes[si];
    std::fprintf(stderr, "size %d:", n);
    std::vector<RoundResult> results;
    std::vector<double> times;
    for (int round = 0; round < rounds; ++round) {
      RoundResult r = run_round(n, 1000 + static_cast<std::uint64_t>(round),
                                wellknown, check_period);
      all_converged = all_converged && r.converged;
      std::fprintf(stderr, " %.0fs(%.1fw)", r.converge_sim_s, r.wall_s);
      times.push_back(r.converge_sim_s);
      results.push_back(r);
    }
    std::fprintf(stderr, "\n");

    double med = percentile(times, 50);
    // The full record (join percentiles) of the last round nearest the
    // median: with an even round count the median lies between two.
    const RoundResult* med_round = &results[0];
    for (const RoundResult& r : results) {
      if (std::abs(r.converge_sim_s - med) <=
          std::abs(med_round->converge_sim_s - med)) {
        med_round = &r;
      }
    }
    double lo = *std::min_element(times.begin(), times.end());
    double hi = *std::max_element(times.begin(), times.end());

    std::fprintf(out,
                 "    {\n"
                 "      \"nodes\": %d,\n"
                 "      \"converged_all_rounds\": %s,\n"
                 "      \"time_to_single_ring_s\": {\"median\": %.1f, "
                 "\"min\": %.1f, \"max\": %.1f},\n"
                 "      \"ring_census\": %zu,\n"
                 "      \"join_latency_s\": {\"mean\": %.1f, \"p50\": %.1f, "
                 "\"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f, "
                 "\"unjoined\": %zu},\n"
                 "      \"executed_events\": %llu,\n"
                 "      \"wall_s\": %.2f\n"
                 "    }%s\n",
                 n, all_converged ? "true" : "false", med, lo, hi,
                 med_round->rings, med_round->join.mean,
                 med_round->join.p50, med_round->join.p95,
                 med_round->join.p99, med_round->join.max,
                 med_round->join.unjoined,
                 static_cast<unsigned long long>(med_round->events),
                 med_round->wall_s, si + 1 < sizes.size() ? "," : "");
  }

  std::fprintf(out,
               "  ],\n"
               "  \"notes\": \"Convergence time grows sub-linearly with "
               "crowd size: the well-known endpoints spread load through "
               "rotation and gossip peer-sampling (PR 8), so the crowd "
               "self-organizes in parallel once the first arrivals form a "
               "kernel ring.  The curve is the capacity-planning input "
               "for wowd deployments: it bounds how long a cold-booted "
               "pool takes to become one overlay.\"\n"
               "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return all_converged ? 0 : 1;
}
