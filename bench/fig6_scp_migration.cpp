// Figure 6 reproduction: an SCP-style download of a 720 MB file whose
// *server* VM migrates (UFL -> NWU) mid-transfer.  The client-side file
// size is sampled over time: steady growth, a stall while the VM is
// suspended/copied and its IPOP process rejoins, then seamless resume —
// no application restart.
//
// Paper: 1.36 MB/s before migration, 1.83 MB/s after; the no-routability
// window was ~8 minutes on their 150-node overlay.

#include <cstdio>
#include <vector>

#include "apps/bulk_transfer.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

int main(int argc, char** argv) {
  using namespace wow;
  std::uint64_t size_mb = 720;
  int migrate_at_s = 200;
  int suspend_s = 240;
  TestbedConfig config;
  config.seed = 23;
  tools::FlagSet flags("fig6_scp_migration", "");
  flags.value("size_mb", size_mb, "file size in MB");
  flags.value("migrate_at", migrate_at_s, "seconds into the transfer");
  flags.value("suspend", suspend_s, "VM suspend + copy seconds");
  flags.value("seed", config.seed, "testbed seed");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  std::uint64_t size = size_mb * 1000000ull;
  SimDuration migrate_at = migrate_at_s * kSecond;
  SimDuration suspend = suspend_s * kSecond;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  auto& server = bed.node(3);   // file server, starts at UFL
  auto& client = bed.node(17);  // SCP client at NWU

  std::printf("== Figure 6: SCP transfer across server VM migration ==\n");
  std::printf("file: %llu MB, migrate at %+.0f s (suspend %.0f s)\n\n",
              static_cast<unsigned long long>(size / 1000000),
              to_seconds(migrate_at), to_seconds(suspend));

  apps::BulkSource source(sim, *server.tcp, 5001, size);
  apps::BulkSink sink(sim, *client.tcp);

  bool done = false;
  apps::BulkSink::Result result;
  SimTime t0 = sim.now();
  sink.fetch(server.vip(), 5001, [&](const apps::BulkSink::Result& r) {
    done = true;
    result = r;
  });

  bool migrated = false;
  std::uint64_t bytes_at_migration = 0;
  SimTime resume_time = 0;

  std::printf("%10s %14s\n", "elapsed_s", "received_MB");
  SimTime next_sample = t0;
  while (!done && sim.now() - t0 < 4ll * 60 * kMinute) {
    sim.run_for(10 * kSecond);
    if (!migrated && sim.now() - t0 >= migrate_at) {
      migrated = true;
      bytes_at_migration = sink.received();
      bed.migrate(server, /*to_ufl=*/false, suspend, 0.83);
      resume_time = sim.now() + suspend;
      std::printf("%10.0f   -- server suspended, migrating UFL -> NWU --\n",
                  to_seconds(sim.now() - t0));
    }
    if (sim.now() >= next_sample) {
      std::printf("%10.0f %14.1f\n", to_seconds(sim.now() - t0),
                  static_cast<double>(sink.received()) / 1e6);
      next_sample += 30 * kSecond;
    }
  }

  if (!done) {
    std::printf("\ntransfer DID NOT COMPLETE (received %.1f MB)\n",
                static_cast<double>(sink.received()) / 1e6);
    return 1;
  }

  double pre_mbps = static_cast<double>(bytes_at_migration) /
                    to_seconds(migrate_at) / 1e6;
  double post_seconds = to_seconds(result.finished - resume_time);
  double post_mbps = post_seconds > 0
                         ? static_cast<double>(size - bytes_at_migration) /
                               post_seconds / 1e6
                         : 0.0;
  std::printf("\ncompleted in %.0f s; throughput before migration "
              "%.2f MB/s, after resume %.2f MB/s\n",
              result.seconds(), pre_mbps, post_mbps);
  std::printf("paper: 1.36 MB/s before, 1.83 MB/s after; transfer resumes "
              "with no application restart\n");
  return 0;
}
