// Figure 5 reproduction: the three dropped-packet regimes during a WOW
// node join, zoomed into the first 50 ICMP sequence numbers of the
// UFL-NWU scenario.
//
//   regime 1: the new node is not routable — ~all packets lost;
//   regime 2: routable, multi-hop routed — occasional loss, high RTT;
//   regime 3: shortcut connection formed — ~no loss, low RTT.

#include <cstdio>

#include "join_lab.h"
#include "tools/tool_flags.h"

int main(int argc, char** argv) {
  using namespace wow;
  using namespace wow::bench;
  int trials = 20;
  TestbedConfig config;
  config.seed = 11;
  tools::FlagSet flags("fig5_regimes", "");
  flags.value("trials", trials, "join trials");
  flags.value("seed", config.seed, "testbed seed");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Figure 5: dropped-packet regimes, UFL-NWU, first 50 "
              "ICMP packets ==\n");
  std::printf("trials: %d\n\n", trials);

  JoinLab lab(config);
  JoinProfile profile = lab.run(Scenario::kUflNwu, trials, 50);

  std::printf("%8s %12s %14s\n", "icmp_seq", "loss_pct", "avg_rtt_ms");
  for (std::size_t s = 0; s < profile.loss_fraction.size(); ++s) {
    std::printf("%8zu %11.1f%% %14.1f\n", s + 1,
                profile.loss_fraction[s] * 100.0, profile.avg_rtt_ms[s]);
  }

  // Regime boundaries: regime 1 ends at the first seq with <50% loss;
  // regime 3 begins once the mean RTT stays below 60 ms (direct path).
  std::size_t regime2_start = profile.loss_fraction.size();
  for (std::size_t s = 0; s < profile.loss_fraction.size(); ++s) {
    if (profile.loss_fraction[s] < 0.5) {
      regime2_start = s;
      break;
    }
  }
  std::size_t regime3_start = profile.loss_fraction.size();
  for (std::size_t s = regime2_start; s < profile.avg_rtt_ms.size(); ++s) {
    bool settled = profile.rtt_samples[s] > 0 && profile.avg_rtt_ms[s] < 60.0;
    if (settled) {
      regime3_start = s;
      break;
    }
  }
  std::printf("\nregime 1 (unroutable): seq 1..%zu\n", regime2_start);
  std::printf("regime 2 (multi-hop):  seq %zu..%zu\n", regime2_start + 1,
              regime3_start);
  std::printf("regime 3 (shortcut):   seq %zu.. (per-trial onset varies)\n",
              regime3_start + 1);
  std::printf("paper: regime 1 ~first 3 packets (90%% dropped); regime 2 "
              "through ~seq 32; regime 3 after\n");
  return 0;
}
