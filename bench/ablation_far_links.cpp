// Ablation (§IV-A): number of structured-far connections k vs routing
// performance.  Brunet's far links give O((1/k) log^2 n) expected hops;
// this bench sweeps k and measures mean delivered hop count and ICMP
// RTT across random compute-node pairs (shortcuts disabled so every
// packet is routed).

#include <cstdio>

#include "common/stats.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

void run_k(int k, std::uint64_t seed, int probes) {
  TestbedConfig config;
  config.seed = seed;
  config.far_target = k;
  config.shortcuts_enabled = false;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  // Snapshot hop accounting, then probe random pairs.
  auto delivered0 = std::uint64_t{0};
  auto hops0 = std::uint64_t{0};
  for (auto& n : bed.nodes()) {
    delivered0 += n.ipop->p2p().stats().data_delivered;
    hops0 += n.ipop->p2p().stats().delivered_hops;
  }

  auto rtts = std::make_shared<RunningStats>();
  for (auto& n : bed.nodes()) {
    n.icmp->set_reply_handler([rtts](net::Ipv4Addr, std::uint16_t,
                                     std::uint16_t, SimDuration rtt) {
      rtts->add(to_millis(rtt));
    });
  }
  int sent = 0;
  for (int p = 0; p < probes; ++p) {
    int i = static_cast<int>(sim.rng().uniform(2, 34));
    int j = static_cast<int>(sim.rng().uniform(2, 34));
    if (i == j) continue;
    bed.node(i).icmp->ping(bed.node(j).vip(), 5,
                           static_cast<std::uint16_t>(p + 1));
    ++sent;
    sim.run_for(kSecond);
  }
  sim.run_for(5 * kSecond);

  std::uint64_t delivered1 = 0;
  std::uint64_t hops1 = 0;
  std::size_t far_total = 0;
  for (auto& n : bed.nodes()) {
    delivered1 += n.ipop->p2p().stats().data_delivered;
    hops1 += n.ipop->p2p().stats().delivered_hops;
  }
  for (auto& r : bed.routers()) {
    far_total += r->connections().count(p2p::ConnectionType::kStructuredFar);
  }
  double avg_hops = delivered1 > delivered0
                        ? static_cast<double>(hops1 - hops0) /
                              static_cast<double>(delivered1 - delivered0)
                        : 0.0;
  double delivery = sent > 0 ? 100.0 * static_cast<double>(rtts->count()) /
                                   sent
                             : 0.0;
  std::printf("%4d | %12.2f %12.1f %11.0f%% %14.1f\n", k, avg_hops,
              rtts->mean(), delivery,
              static_cast<double>(far_total) /
                  static_cast<double>(bed.routers().size()));
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 43;
  int probes = 60;
  wow::tools::FlagSet flags("ablation_far_links", "");
  flags.value("seed", seed, "testbed seed");
  flags.value("probes", probes, "pings per k");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Ablation: structured-far link count k vs routing ==\n\n");
  std::printf("%4s | %12s %12s %12s %14s\n", "k", "avg_hops", "rtt_ms",
              "delivered", "router_far_avg");
  for (int k : {2, 4, 8, 16, 32}) run_k(k, seed, probes);
  std::printf("\nexpectation: hops fall roughly as 1/k (Brunet cites "
              "O((1/k) log^2 n)); latency follows hops\n");
  return 0;
}
