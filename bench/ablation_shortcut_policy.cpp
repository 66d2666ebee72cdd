// Ablation (§IV-E): the ShortcutConnectionOverlord's score policy.
//
// The paper keeps the score threshold constant and defers modelling the
// threshold-vs-maintenance-cost trade-off to future work.  This bench
// sweeps the threshold and the service rate c and reports, for a fixed
// ping workload between node pairs: how many shortcuts were created,
// how quickly, and the late-stage latency achieved.

#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "p2p/shortcut_overlord.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

struct Outcome {
  int shortcuts = 0;
  double mean_onset_s = 0.0;   // traffic start -> shortcut
  double late_rtt_ms = 0.0;    // mean RTT of last 20 pings
  std::uint64_t requested = 0;  // CTMs the overlord fired
};

Outcome run(double threshold, double rate, std::uint64_t seed, int pairs) {
  TestbedConfig config;
  config.seed = seed;
  config.shortcut_threshold = threshold;
  config.shortcut_service_rate = rate;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  // Fixed traffic matrix: UFL node i pings NWU node 17+i at 1 pkt/s.
  struct Pair {
    Testbed::ComputeNode* a;
    Testbed::ComputeNode* b;
    std::vector<double> rtts;
  };
  auto pairs_v = std::make_shared<std::vector<Pair>>();
  for (int i = 3; i <= 16 && static_cast<int>(pairs_v->size()) < pairs;
       ++i) {
    auto& a = bed.node(i);
    auto& b = bed.node(17 + (i - 3) % 13);  // an NWU partner
    // Only pairs without a pre-existing ring link: has_direct() counts
    // any connection type, and an accidental near/far link would score
    // as an instant "shortcut".
    if (!a.ipop->p2p().has_direct(b.ipop->p2p().address()) &&
        !b.ipop->p2p().has_direct(a.ipop->p2p().address())) {
      pairs_v->push_back(Pair{&a, &b, {}});
    }
  }
  for (auto& p : *pairs_v) {
    auto* rtts = &p.rtts;
    net::Ipv4Addr want = p.b->vip();
    p.a->icmp->set_reply_handler(
        [rtts, want](net::Ipv4Addr from, std::uint16_t, std::uint16_t,
                     SimDuration rtt) {
          if (from == want) rtts->push_back(to_millis(rtt));
        });
  }

  int live_pairs = static_cast<int>(pairs_v->size());
  SimTime start = sim.now();
  std::vector<std::optional<SimTime>> onset(
      static_cast<std::size_t>(live_pairs));
  for (int s = 1; s <= 120; ++s) {
    for (auto& p : *pairs_v) {
      p.a->icmp->ping(p.b->vip(), 9, static_cast<std::uint16_t>(s));
    }
    sim.run_for(kSecond);
    for (int i = 0; i < live_pairs; ++i) {
      auto& p = (*pairs_v)[static_cast<std::size_t>(i)];
      auto idx = static_cast<std::size_t>(i);
      if (!onset[idx] &&
          p.a->ipop->p2p().has_direct(p.b->ipop->p2p().address())) {
        onset[idx] = sim.now();
      }
    }
  }
  sim.run_for(5 * kSecond);

  Outcome out;
  RunningStats onset_s;
  std::uint64_t requested = 0;
  for (int i = 0; i < live_pairs; ++i) {
    auto idx = static_cast<std::size_t>(i);
    auto& p = (*pairs_v)[idx];
    if (onset[idx]) {
      ++out.shortcuts;
      onset_s.add(to_seconds(*onset[idx] - start));
    }
    requested += p.a->ipop->p2p().shortcut_overlord().shortcuts_requested();
    RunningStats late;
    std::size_t n = p.rtts.size();
    for (std::size_t k = n > 20 ? n - 20 : 0; k < n; ++k) late.add(p.rtts[k]);
    out.late_rtt_ms += late.mean() / std::max(live_pairs, 1);
  }
  out.mean_onset_s = onset_s.count() > 0 ? onset_s.mean() : -1.0;
  out.requested = requested;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 41;
  int pairs = 4;
  wow::tools::FlagSet flags("ablation_shortcut_policy", "");
  flags.value("seed", seed, "testbed seed");
  flags.value("pairs", pairs, "UFL->NWU traffic pairs");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Ablation: shortcut score threshold and service rate ==\n");
  std::printf("workload: %d UFL->NWU pairs, 1 ping/s for 120 s\n\n", pairs);
  std::printf("%10s %6s | %9s %12s %12s %9s\n", "threshold", "c",
              "shortcuts", "onset_s", "late_rtt_ms", "ctm_req");

  double thresholds[] = {5, 25, 60, 1e9};
  double rates[] = {0.5, 2.0};
  for (double rate : rates) {
    for (double threshold : thresholds) {
      Outcome o = run(threshold, rate, seed, pairs);
      std::printf("%10.0f %6.1f | %9d %12.1f %12.1f %9llu\n", threshold,
                  rate, o.shortcuts, o.mean_onset_s, o.late_rtt_ms,
                  static_cast<unsigned long long>(o.requested));
    }
  }
  std::printf("\nexpectation: low thresholds create shortcuts fast (low "
              "latency, more maintenance); an unreachable threshold "
              "degenerates to shortcuts-disabled (multi-hop latency); "
              "higher c needs proportionally more traffic\n");
  return 0;
}
