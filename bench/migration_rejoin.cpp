// §V-C claim: after a VM migrates and its IPOP process restarts, the
// node is unroutable until it rejoins the ring (the paper observed
// ~8 minutes on their 150-node overlay with conservative timers).
//
// Sweeps the overlay size and measures, over repeated migrations, the
// no-routability window: suspend time + rejoin latency.

#include <cstdio>

#include "common/stats.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

void run_size(int routers, std::uint64_t seed, int trials,
              SimDuration suspend) {
  TestbedConfig config;
  config.seed = seed;
  config.planetlab_routers = routers;
  config.planetlab_hosts = std::max(4, routers / 6);

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all(kMinute + routers * 2 * kSecond + 5 * kMinute);
  sim.run_for(4 * kMinute);

  RunningStats window_s;
  auto& mover = bed.node(5);
  bool to_ufl = false;
  for (int t = 0; t < trials; ++t) {
    SimTime start = sim.now();
    bed.migrate(mover, to_ufl, suspend, to_ufl ? 1.0 : 0.83);
    to_ufl = !to_ufl;

    SimTime deadline = sim.now() + 30ll * kMinute;
    while (sim.now() < deadline) {
      sim.run_for(kSecond);
      if (mover.ipop->p2p().routable()) break;
    }
    if (!mover.ipop->p2p().routable()) {
      std::printf("  trial %d: did not rejoin within 30 min\n", t);
      continue;
    }
    window_s.add(to_seconds(sim.now() - start));
    sim.run_for(3 * kMinute);  // settle before the next migration
  }
  std::printf("%8d | %12.1f %12.1f %12.1f\n", routers + 33,
              window_s.mean(), window_s.min(), window_s.max());
}

}  // namespace

int main(int argc, char** argv) {
  int trials = 5;
  int suspend_s = 0;
  std::uint64_t seed = 53;
  wow::tools::FlagSet flags("migration_rejoin", "");
  flags.value("trials", trials, "migrations per overlay size");
  flags.value("suspend", suspend_s, "suspend seconds; 0 isolates the rejoin");
  flags.value("seed", seed, "testbed seed of the smallest overlay");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  SimDuration suspend = suspend_s * kSecond;

  std::printf("== Migration rejoin: no-routability window vs overlay "
              "size ==\n");
  std::printf("suspend time %0.f s (0 isolates the overlay rejoin "
              "latency)\n\n",
              to_seconds(suspend));
  std::printf("%8s | %12s %12s %12s\n", "nodes", "mean_s", "min_s", "max_s");
  for (int routers : {30, 70, 118}) {
    run_size(routers, seed++, trials, suspend);
  }
  std::printf("\npaper: ~8 min no-routability after migration on the "
              "150-node overlay (conservative Brunet timers); our\n"
              "re-join is faster because the implementation re-announces "
              "aggressively while unroutable\n");
  return 0;
}
