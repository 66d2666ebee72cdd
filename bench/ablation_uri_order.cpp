// Ablation (§V-B): linking-protocol URI trial order.
//
// The paper's IPOP attempts the NAT-assigned public URI before the
// private URI; behind UFL's non-hairpin NAT the public URI is dead and
// the conservative retry schedule burns ~157 s per attempt — the whole
// reason UFL-UFL shortcuts take ~200 s (Fig. 4).  Flipping the order
// makes same-domain linking nearly instant while leaving cross-domain
// behaviour intact.

#include <cstdio>

#include "common/stats.h"
#include "join_lab.h"
#include "tools/tool_flags.h"

namespace {

using namespace wow;
using namespace wow::bench;

void run_order(bool public_first, std::uint64_t seed, int trials) {
  TestbedConfig config;
  config.seed = seed;
  config.public_uri_first = public_first;

  JoinLab lab(config);
  for (Scenario scenario : {Scenario::kUflUfl, Scenario::kUflNwu}) {
    JoinProfile profile = lab.run(scenario, trials, 300);
    RunningStats onset;
    int formed = 0;
    for (const TrialResult& t : profile.trials) {
      if (t.shortcut_after_s) {
        ++formed;
        onset.add(*t.shortcut_after_s);
      }
    }
    std::printf("  %-8s: shortcut in %d/%d trials, mean onset %6.1f s\n",
                to_string(scenario), formed, trials,
                onset.count() ? onset.mean() : -1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int trials = 5;
  std::uint64_t seed = 47;
  tools::FlagSet flags("ablation_uri_order", "");
  flags.value("trials", trials, "join trials per scenario and order");
  flags.value("seed", seed, "testbed seed of the public-first run");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Ablation: URI trial order in the linking protocol ==\n\n");
  std::printf("public URI first (the paper's implementation):\n");
  run_order(/*public_first=*/true, seed, trials);
  std::printf("\nprivate URI first (the ablation):\n");
  run_order(/*public_first=*/false, seed + 1, trials);
  std::printf("\nexpectation: UFL-UFL onset collapses from ~200 s to "
              "seconds when the private URI is tried first; UFL-NWU is "
              "largely unaffected\n");
  return 0;
}
