// §V-B / abstract claim reproduction: over repeated join trials, "90% of
// the nodes self-configured P2P routes within 10 seconds, and more than
// 99% established direct connections to other nodes within 200 seconds."
//
// Measures, per trial: time from IPOP start until fully routable, and
// time until a direct shortcut to the traffic peer exists.

#include <cstdio>

#include "common/stats.h"
#include "join_lab.h"
#include "tools/tool_flags.h"

int main(int argc, char** argv) {
  using namespace wow;
  using namespace wow::bench;
  int trials = 30;
  TestbedConfig config;
  config.seed = 13;
  std::string trace_path;
  std::string metrics_path;
  tools::FlagSet flags("join_cdf", "");
  flags.value("trials", trials, "join trials; the paper used 300");
  flags.value("seed", config.seed, "testbed seed");
  flags.value("trace", trace_path, "JSONL event trace for trace_report");
  flags.value("metrics", metrics_path, "final metrics-registry JSON file");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Join-latency CDF (abstract / §V-B claims) ==\n");
  std::printf("trials: %d (spread across UFL-NWU / UFL-UFL / NWU-NWU)\n\n",
              trials);

  JoinLab lab(config);
  if (!trace_path.empty() && !lab.testbed().attach_trace(trace_path)) {
    std::fprintf(stderr, "cannot open trace file %s\n", trace_path.c_str());
    return 1;
  }
  std::vector<double> routable_s;
  std::vector<double> shortcut_s;
  int no_shortcut = 0;

  Scenario scenarios[3] = {Scenario::kUflNwu, Scenario::kUflUfl,
                           Scenario::kNwuNwu};
  int per_scenario = (trials + 2) / 3;
  for (Scenario scenario : scenarios) {
    JoinProfile profile = lab.run(scenario, per_scenario, 300);
    for (const TrialResult& t : profile.trials) {
      if (t.routable_after_s) routable_s.push_back(*t.routable_after_s);
      if (t.shortcut_after_s) {
        shortcut_s.push_back(*t.shortcut_after_s);
      } else {
        ++no_shortcut;
      }
    }
  }

  std::printf("time to fully routable (s): p50=%.1f p90=%.1f p99=%.1f "
              "max=%.1f  (n=%zu)\n",
              percentile(routable_s, 50), percentile(routable_s, 90),
              percentile(routable_s, 99),
              percentile(routable_s, 100), routable_s.size());
  std::printf("time to direct connection (s): p50=%.1f p90=%.1f p99=%.1f "
              "max=%.1f  (n=%zu, %d trials never formed one)\n",
              percentile(shortcut_s, 50), percentile(shortcut_s, 90),
              percentile(shortcut_s, 99),
              percentile(shortcut_s, 100), shortcut_s.size(), no_shortcut);
  std::printf("\npaper: 90%% routable within 10 s; >99%% direct connection "
              "within 200 s (300 trials)\n");

  if (!metrics_path.empty() &&
      !lab.testbed().write_metrics_report(metrics_path)) {
    std::fprintf(stderr, "cannot write metrics file %s\n",
                 metrics_path.c_str());
    return 1;
  }
  return 0;
}
