// Telemetry overhead guard: proves the telemetry plane's "bounded
// overhead" claim with numbers, and fails loudly when it regresses.
//
// Runs the same churn-heavy overlay scenario in three configurations:
//
//   off      no sink, flight recorders disabled — the baseline
//   full     every class traced at rate 1.0 (the debugging profile;
//            reported for context, NOT budget-guarded: its cost is
//            proportional to the control-plane volume by design)
//   bounded  the megascale soak profile the "bounded overhead" claim is
//            about: packet class sampled at --rate, protocol class
//            switched off (selective capture), lifecycle/fault/oracle
//            forensics on, flight recorders on, periodic fleet
//            snapshots + metric windows
//
// Rounds interleave off/bounded/full (the BENCH_PR2 methodology:
// single runs vary tens of percent on shared hosts, so only paired
// interleaved medians give honest ratios).  The bounded profile's
// median overhead must stay within --budget percent or the binary
// exits 1.  Run it from a Release build.
//
// Exit status: 0 within budget, 1 over budget, 2 bad flags.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "net/network.h"
#include "p2p/node.h"
#include "p2p/node_inspector.h"
#include "sim/simulator.h"
#include "tools/tool_flags.h"
#include "wow/fleet.h"

namespace {

using namespace wow;

/// Discards records after formatting: measures the telemetry plane's
/// compute cost (guards, hashing, formatting) without the unbounded
/// memory of a string sink or the disk noise of a file sink.
class CountingSink final : public TraceSink {
 public:
  void line(std::string_view json) override {
    bytes_ += json.size();
    ++lines_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

enum class Profile { kOff, kFull, kBounded };

struct ScenarioStats {
  double wall_seconds = 0.0;
  std::uint64_t executed_events = 0;
  std::uint64_t trace_lines = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t dropped_by_sampling = 0;
};

/// One soak scenario: bootstrap an all-public overlay, converge, then
/// drive traffic bursts while flapping one node (churn keeps the
/// lifecycle/flight paths busy, traffic keeps the packet paths busy).
/// Identical event sequence in both configurations — the determinism
/// suite proves that — so the wall-clock delta IS the telemetry cost.
ScenarioStats run_scenario(int node_count, Profile profile, double rate) {
  const bool telemetry = profile != Profile::kOff;
  auto t0 = std::chrono::steady_clock::now();

  p2p::NodeConfig node;
  node.flight_capacity = telemetry ? 64 : 0;
  Fleet fleet(FleetConfig{.seed = 99,
                          .nodes = node_count,
                          .sites = 1,
                          .node = node,
                          .wellknown = 1});
  fleet.network.set_default_wan(
      net::LinkModel{30 * kMillisecond, 2 * kMillisecond, 0.002});
  sim::Simulator& sim = fleet.sim;
  const auto& nodes = fleet.nodes;

  CountingSink sink;
  p2p::FleetSnapshotter snaps(/*per_node_lines=*/false);
  MetricsTimeSeries series(sim.metrics());
  std::vector<p2p::Node*> all;
  for (auto& n : nodes) all.push_back(n.get());
  if (telemetry) {
    sim.trace().attach(&sink);
    if (profile == Profile::kBounded) {
      sim.trace().set_sample_rate(rate);
      sim.trace().set_class_enabled(TraceClass::kProtocol, false);
    }
  }
  auto sample = [&] {
    if (!telemetry) return;
    snaps.sample(sim.now(), all, sim.executed_events(),
                 sim.pending_events());
    series.sample(sim.now());
  };

  for (auto& n : nodes) n->start();
  while (sim.now() < 3 * kMinute) {
    sim.run_for(30 * kSecond);
    sample();
  }
  p2p::Node* flapper = nodes.back().get();
  for (int burst = 0; burst < 12; ++burst) {
    if (burst % 4 == 0) flapper->stop();
    if (burst % 4 == 2) flapper->restart();
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      if (!nodes[i]->running()) continue;
      p2p::Node* dst =
          nodes[(i + 1 + static_cast<std::size_t>(burst)) % nodes.size()]
              .get();
      nodes[i]->send_data(dst->address(), Bytes{7, 7});
    }
    sim.run_for(20 * kSecond);
    sample();
  }
  if (!flapper->running()) flapper->restart();
  sim.run_for(kMinute);
  sample();

  ScenarioStats out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.executed_events = sim.executed_events();
  out.trace_lines = sink.lines();
  out.trace_bytes = sink.bytes();
  out.dropped_by_sampling = sim.trace().dropped_by_sampling();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 7;
  int nodes = 16;
  double rate = 0.01;
  // ~10% measured at 48 nodes / 1% sampling / 30s-equivalent cadence on
  // a quiet host; 15% default leaves headroom for noisy CI runners
  // while still catching a real regression (the pre-optimization
  // snapshot path measured 22%+).
  double budget_pct = 15.0;
  bool json = false;
  wow::tools::FlagSet flags("telemetry_overhead", "");
  flags.value("rounds", rounds, "interleaved off/bounded/full rounds");
  flags.value("nodes", nodes, "overlay size");
  flags.value("rate", rate, "packet-class trace sampling rate");
  flags.value("budget", budget_pct, "bounded-profile overhead budget, %");
  flags.flag("json", json, "print the result as JSON");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  if (rounds < 3 || nodes < 4 || rate < 0.0 || rate > 1.0) {
    std::fprintf(stderr,
                 "telemetry_overhead: need --rounds>=3 --nodes>=4 "
                 "--rate in [0,1]\n");
    return 2;
  }

  // One warmup sweep primes caches/allocator before the timed rounds.
  (void)run_scenario(nodes, Profile::kOff, rate);
  (void)run_scenario(nodes, Profile::kBounded, rate);

  std::vector<double> off_s;
  std::vector<double> bounded_s;
  std::vector<double> full_s;
  ScenarioStats bounded_last;
  ScenarioStats full_last;
  for (int r = 0; r < rounds; ++r) {
    ScenarioStats off = run_scenario(nodes, Profile::kOff, rate);
    bounded_last = run_scenario(nodes, Profile::kBounded, rate);
    full_last = run_scenario(nodes, Profile::kFull, rate);
    off_s.push_back(off.wall_seconds);
    bounded_s.push_back(bounded_last.wall_seconds);
    full_s.push_back(full_last.wall_seconds);
    std::fprintf(stderr, "round %d/%d: off=%.3fs bounded=%.3fs full=%.3fs\n",
                 r + 1, rounds, off.wall_seconds, bounded_last.wall_seconds,
                 full_last.wall_seconds);
  }

  const double off_med = percentile(off_s, 50);
  const double bounded_med = percentile(bounded_s, 50);
  const double full_med = percentile(full_s, 50);
  const double bounded_pct = 100.0 * (bounded_med / off_med - 1.0);
  const double full_pct = 100.0 * (full_med / off_med - 1.0);
  const bool within = bounded_pct <= budget_pct;

  if (json) {
    std::printf(
        "{\n"
        "  \"nodes\": %d,\n"
        "  \"rounds\": %d,\n"
        "  \"sample_rate\": %g,\n"
        "  \"off_median_s\": %.4f,\n"
        "  \"bounded_median_s\": %.4f,\n"
        "  \"full_median_s\": %.4f,\n"
        "  \"bounded_overhead_pct\": %.2f,\n"
        "  \"full_overhead_pct\": %.2f,\n"
        "  \"budget_pct\": %g,\n"
        "  \"within_budget\": %s,\n"
        "  \"bounded_trace_lines\": %llu,\n"
        "  \"bounded_trace_bytes\": %llu,\n"
        "  \"bounded_dropped_by_sampling\": %llu,\n"
        "  \"full_trace_lines\": %llu,\n"
        "  \"executed_events\": %llu\n"
        "}\n",
        nodes, rounds, rate, off_med, bounded_med, full_med, bounded_pct,
        full_pct, budget_pct, within ? "true" : "false",
        static_cast<unsigned long long>(bounded_last.trace_lines),
        static_cast<unsigned long long>(bounded_last.trace_bytes),
        static_cast<unsigned long long>(bounded_last.dropped_by_sampling),
        static_cast<unsigned long long>(full_last.trace_lines),
        static_cast<unsigned long long>(bounded_last.executed_events));
  } else {
    std::printf(
        "telemetry_overhead: nodes=%d rounds=%d rate=%g\n"
        "  off     %.3fs\n"
        "  bounded %.3fs (+%.2f%%, budget %g%%) -> %s\n"
        "  full    %.3fs (+%.2f%%, informational)\n",
        nodes, rounds, rate, off_med, bounded_med, bounded_pct, budget_pct,
        within ? "OK" : "OVER BUDGET", full_med, full_pct);
    std::printf(
        "bounded run: %llu events, %llu trace lines (%llu bytes), "
        "%llu records sampled away; full run: %llu lines\n",
        static_cast<unsigned long long>(bounded_last.executed_events),
        static_cast<unsigned long long>(bounded_last.trace_lines),
        static_cast<unsigned long long>(bounded_last.trace_bytes),
        static_cast<unsigned long long>(bounded_last.dropped_by_sampling),
        static_cast<unsigned long long>(full_last.trace_lines));
  }
  if (!within) {
    std::fprintf(stderr,
                 "telemetry_overhead: FAIL — bounded profile %.2f%% "
                 "exceeds the %g%% budget\n",
                 bounded_pct, budget_pct);
    return 1;
  }
  return 0;
}
