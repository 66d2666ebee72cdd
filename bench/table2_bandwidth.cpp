// Table II reproduction: ttcp-style end-to-end TCP bandwidth over the
// virtual network, with and without adaptive shortcuts, for UFL-UFL and
// UFL-NWU placements.
//
// Paper: shortcuts enabled  — UFL-UFL 1614±93 KB/s, UFL-NWU 1250±203;
//        shortcuts disabled — UFL-UFL 84±3 KB/s,    UFL-NWU 85±2.3
// (12 transfers of 695/50/8 MB files).

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/bulk_transfer.h"
#include "common/stats.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

struct Placement {
  const char* name;
  int source_index;  // serves the file
  int sink_index;    // fetches it
};

void run_config(bool shortcuts, std::uint64_t seed, int transfers,
                double scale) {
  TestbedConfig config;
  config.seed = seed;
  config.shortcuts_enabled = shortcuts;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  const std::uint64_t sizes[3] = {
      static_cast<std::uint64_t>(695e6 * scale),
      static_cast<std::uint64_t>(50e6 * scale),
      static_cast<std::uint64_t>(8e6 * scale)};
  // Pick pairs with no pre-existing ring connection, so the
  // shortcuts-disabled rows measure multi-hop routing as the paper's
  // pairs did (an accidentally-adjacent pair would see a direct link
  // regardless of the shortcut mechanism).
  auto pick = [&bed](int lo, int hi, int sink, int skip) {
    int found = 0;
    for (int i = lo; i <= hi; ++i) {
      auto& a = bed.node(i);
      auto& b = bed.node(sink);
      if (!a.ipop->p2p().has_direct(b.ipop->p2p().address()) &&
          !b.ipop->p2p().has_direct(a.ipop->p2p().address())) {
        if (found++ == skip) return i;
      }
    }
    return lo;
  };

  std::printf("shortcuts %s:\n", shortcuts ? "enabled" : "disabled");
  Placement placements[2] = {{"UFL-UFL", 3, 2}, {"UFL-NWU", 17, 2}};
  // Sources stay alive for the whole run: their listeners hold
  // references into them.
  std::vector<std::unique_ptr<apps::BulkSource>> sources;
  for (Placement& p : placements) {
    auto& dst = bed.node(p.sink_index);
    apps::BulkSink sink(sim, *dst.tcp);

    RunningStats kbps;
    for (int t = 0; t < transfers; ++t) {
      // Rotate among candidate source nodes: individual multi-hop
      // paths vary (some dodge the loaded routers entirely), and the
      // paper's numbers average 12 transfers.
      bool ufl = p.source_index < 17;
      int src_index = pick(ufl ? 3 : 17, ufl ? 16 : 29, p.sink_index, t % 3);
      auto& src = bed.node(src_index);
      sources.push_back(std::make_unique<apps::BulkSource>(
          sim, *src.tcp, 5001, sizes[0]));
      apps::BulkSource& source = *sources.back();
      for (std::uint64_t size : sizes) {
        source.set_size(size);
        bool done = false;
        apps::BulkSink::Result result;
        sink.fetch(src.vip(), 5001, [&](const apps::BulkSink::Result& r) {
          done = true;
          result = r;
        });
        // Generous cap: the slowest paper configuration moves ~85 KB/s.
        SimTime deadline = sim.now() + 6 * 60 * kMinute;
        while (!done && sim.now() < deadline) sim.run_for(10 * kSecond);
        if (!done || result.bytes < size) {
          std::printf("  %-8s transfer of %llu MB DID NOT COMPLETE\n",
                      p.name,
                      static_cast<unsigned long long>(size / 1000000));
          continue;
        }
        kbps.add(result.throughput_kbps());
      }
    }
    std::printf("  %-8s  %8.0f KB/s  (stdev %.0f, n=%zu)\n", p.name,
                kbps.mean(), kbps.stdev(), kbps.count());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int transfers = 2;
  double scale = 1.0;
  std::uint64_t seed = 17;
  wow::tools::FlagSet flags("table2_bandwidth", "");
  flags.value("transfers", transfers, "transfers per file size");
  flags.value("scale", scale, "file size multiplier; 0.1 for a quick pass");
  flags.value("seed", seed, "testbed seed of the shortcuts-on run");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Table II: ttcp bandwidth with/without shortcuts ==\n");
  std::printf("file sizes: %.0f / %.0f / %.0f MB, %d transfers each\n\n",
              695 * scale, 50 * scale, 8 * scale, transfers);
  run_config(/*shortcuts=*/true, seed, transfers, scale);
  run_config(/*shortcuts=*/false, seed + 1, transfers, scale);
  std::printf("\npaper: enabled  UFL-UFL 1614+-93, UFL-NWU 1250+-203 KB/s\n");
  std::printf("       disabled UFL-UFL 84+-3,    UFL-NWU 85+-2.3 KB/s\n");
  return 0;
}
