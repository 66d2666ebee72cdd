// Live migration: move a running file server's VM across the WAN while
// a client downloads from it (§V-C / Figure 6 flow, narrated).
//
// The virtual IP — and therefore every TCP connection to it — survives:
// the client's stack retransmits through the outage; the restarted IPOP
// process rejoins the ring under the same address; the transfer resumes
// by itself.
//
// Build & run:  ./build/examples/live_migration

#include <cstdio>

#include "apps/bulk_transfer.h"
#include "wow/testbed.h"

using namespace wow;

int main() {
  TestbedConfig config;
  config.seed = 7;
  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();

  std::printf("booting testbed...\n");
  bed.start_all();
  sim.run_for(8 * kMinute);

  auto& server = bed.node(4);   // file server VM, currently at UFL
  auto& client = bed.node(20);  // client at NWU

  constexpr std::uint64_t kFile = 120 * 1000 * 1000;  // 120 MB
  apps::BulkSource source(sim, *server.tcp, 22, kFile);
  apps::BulkSink sink(sim, *client.tcp);

  std::printf("client %s starts downloading %llu MB from %s\n",
              client.vip().to_string().c_str(),
              static_cast<unsigned long long>(kFile / 1000000),
              server.vip().to_string().c_str());

  bool done = false;
  sink.fetch(server.vip(), 22, [&](const apps::BulkSink::Result& result) {
    done = true;
    std::printf("\ndownload finished: %.1f MB in %.0f s (%.0f KB/s)\n",
                static_cast<double>(result.bytes) / 1e6, result.seconds(),
                result.throughput_kbps());
  });

  SimTime t0 = sim.now();
  bool migrated = false;
  std::uint64_t last = 0;
  while (!done && sim.now() - t0 < 60 * kMinute) {
    sim.run_for(15 * kSecond);
    double rate_kbps =
        static_cast<double>(sink.received() - last) / 1024.0 / 15.0;
    last = sink.received();
    std::printf("  t=%4.0fs received %6.1f MB (%7.0f KB/s)%s\n",
                to_seconds(sim.now() - t0),
                static_cast<double>(sink.received()) / 1e6, rate_kbps,
                rate_kbps < 1 ? "  [stalled]" : "");

    if (!migrated && sink.received() > kFile / 4) {
      migrated = true;
      std::printf("\n*** suspending server VM; copying it UFL -> NWU "
                  "(90 s); virtual IP rides along ***\n\n");
      bed.migrate(server, /*to_ufl=*/false, 90 * kSecond,
                  /*new_cpu_speed=*/0.83);
    }
  }
  return done ? 0 : 1;
}
