// Figure 4 reproduction: ICMP echo round-trip latency and loss profiles
// while a fresh WOW node joins the overlay and ramps from (1) not
// routable, through (2) multi-hop routed, to (3) a direct shortcut
// connection.  Three placement scenarios: UFL-UFL, UFL-NWU, NWU-NWU.
//
// Paper reference points: regime-2 RTT ≈ 146 ms, regime-3 RTT ≈ 38 ms
// (UFL-NWU); UFL-UFL shortcuts near seq 200 (non-hairpin NAT + linking
// URI order); NWU-NWU shortcuts near seq 20.

#include <cstdio>

#include "join_lab.h"
#include "tools/tool_flags.h"

int main(int argc, char** argv) {
  using namespace wow;
  using namespace wow::bench;
  int trials = 10;
  int icmp = 400;
  TestbedConfig config;
  config.seed = 7;
  tools::FlagSet flags("fig4_join_profile", "");
  flags.value("trials", trials, "trials per scenario; the paper used 100");
  flags.value("icmp", icmp, "pings per trial");
  flags.value("seed", config.seed, "testbed seed");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Figure 4: join profiles (RTT + loss vs ICMP seq) ==\n");
  std::printf("trials per scenario: %d, pings per trial: %d\n\n", trials,
              icmp);

  JoinLab lab(config);
  for (Scenario scenario :
       {Scenario::kUflNwu, Scenario::kUflUfl, Scenario::kNwuNwu}) {
    JoinProfile profile = lab.run(scenario, trials, icmp);
    print_profile(std::string("--- scenario ") + to_string(scenario) +
                      " ---",
                  profile, 20);

    // Regime summary in the terms of the paper's discussion.
    auto avg_over = [&](std::size_t lo, std::size_t hi, bool loss) {
      double sum = 0.0;
      int n = 0;
      for (std::size_t s = lo; s < hi && s < profile.avg_rtt_ms.size();
           ++s) {
        if (loss) {
          sum += profile.loss_fraction[s] * 100.0;
          ++n;
        } else if (profile.rtt_samples[s] > 0) {
          sum += profile.avg_rtt_ms[s];
          ++n;
        }
      }
      return n > 0 ? sum / n : 0.0;
    };
    std::printf("\n  early (seq 4-32):  rtt %.1f ms, loss %.1f%%\n",
                avg_over(3, 32, false), avg_over(3, 32, true));
    std::printf("  late (seq 300-400): rtt %.1f ms, loss %.1f%%\n",
                avg_over(299, 400, false), avg_over(299, 400, true));
    int with_shortcut = 0;
    double shortcut_sum = 0.0;
    for (const TrialResult& t : profile.trials) {
      if (t.shortcut_after_s) {
        ++with_shortcut;
        shortcut_sum += *t.shortcut_after_s;
      }
    }
    std::printf("  shortcut formed in %d/%zu trials, mean %.0f s\n\n",
                with_shortcut, profile.trials.size(),
                with_shortcut > 0 ? shortcut_sum / with_shortcut : 0.0);
  }
  std::printf("paper: UFL-NWU regime2 ~146 ms -> regime3 ~38 ms; "
              "UFL-UFL shortcut ~200 s; NWU-NWU shortcut ~20 s\n");
  return 0;
}
