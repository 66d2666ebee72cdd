#include "join_lab.h"

#include <cstdio>

namespace wow::bench {

const char* to_string(Scenario scenario) {
  switch (scenario) {
    case Scenario::kUflUfl: return "UFL-UFL";
    case Scenario::kUflNwu: return "UFL-NWU";
    case Scenario::kNwuNwu: return "NWU-NWU";
  }
  return "?";
}

JoinLab::JoinLab(TestbedConfig config, SimDuration warmup)
    : bed_(config), sim_(bed_.simulator()) {
  bed_.start_routers();
  sim_.run_for(warmup / 2);
  bed_.start_compute();
  sim_.run_for(warmup / 2);
}

TrialResult JoinLab::run_trial(Scenario scenario, int icmp_count,
                               net::Ipv4Addr vip) {
  // A: node002 for UFL-targeted scenarios, node017 for NWU-NWU.
  Testbed::ComputeNode& a =
      scenario == Scenario::kNwuNwu ? bed_.node(17) : bed_.node(2);
  bool b_at_ufl = scenario == Scenario::kUflUfl;

  Testbed::ComputeNode b = bed_.make_extra_node(b_at_ufl, vip);

  TrialResult result;
  result.replied.assign(static_cast<std::size_t>(icmp_count), false);
  result.rtt_ms.assign(static_cast<std::size_t>(icmp_count), 0.0);

  b.icmp->set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                std::uint16_t seq, SimDuration rtt) {
    if (from != a.vip() || seq == 0 || seq > icmp_count) return;
    result.replied[seq - 1] = true;
    result.rtt_ms[seq - 1] = to_millis(rtt);
  });

  SimTime t0 = sim_.now();
  b.ipop->start();

  p2p::Address a_addr = a.ipop->p2p().address();
  std::optional<SimTime> shortcut_at;
  for (int seq = 1; seq <= icmp_count; ++seq) {
    b.icmp->ping(a.vip(), 1, static_cast<std::uint16_t>(seq));
    sim_.run_for(kSecond);
    if (!shortcut_at && b.ipop->p2p().has_direct(a_addr)) {
      shortcut_at = sim_.now();
    }
  }
  sim_.run_for(5 * kSecond);
  if (!shortcut_at && b.ipop->p2p().has_direct(a_addr)) {
    shortcut_at = sim_.now();
  }

  if (auto routable = b.ipop->p2p().routable_since()) {
    result.routable_after_s = to_seconds(*routable - t0);
  }
  if (shortcut_at) result.shortcut_after_s = to_seconds(*shortcut_at - t0);

  b.ipop->stop();
  // Let A's stale shortcut state to B die off before the next trial.
  sim_.run_for(90 * kSecond);
  return result;
}

JoinProfile JoinLab::run(Scenario scenario, int trials, int icmp_count) {
  JoinProfile profile;
  profile.loss_fraction.assign(static_cast<std::size_t>(icmp_count), 0.0);
  profile.avg_rtt_ms.assign(static_cast<std::size_t>(icmp_count), 0.0);
  profile.rtt_samples.assign(static_cast<std::size_t>(icmp_count), 0);

  for (int t = 0; t < trials; ++t) {
    ++trial_counter_;
    // Distinct virtual IP per trial = a fresh position on the ring
    // (the paper cycled B through 10 virtual IPs).
    auto vip = net::Ipv4Addr(172, 16, 3,
                             static_cast<std::uint8_t>(1 + trial_counter_ % 250));
    profile.trials.push_back(run_trial(scenario, icmp_count, vip));
  }

  for (int s = 0; s < icmp_count; ++s) {
    auto idx = static_cast<std::size_t>(s);
    int lost = 0;
    double rtt_sum = 0.0;
    int rtt_n = 0;
    for (const TrialResult& trial : profile.trials) {
      if (!trial.replied[idx]) {
        ++lost;
      } else {
        rtt_sum += trial.rtt_ms[idx];
        ++rtt_n;
      }
    }
    profile.loss_fraction[idx] =
        static_cast<double>(lost) / static_cast<double>(profile.trials.size());
    profile.avg_rtt_ms[idx] = rtt_n > 0 ? rtt_sum / rtt_n : 0.0;
    profile.rtt_samples[idx] = rtt_n;
  }
  return profile;
}

void print_profile(const std::string& title, const JoinProfile& profile,
                   int stride) {
  std::printf("%s\n", title.c_str());
  std::printf("%8s %14s %10s\n", "icmp_seq", "avg_rtt_ms", "loss_pct");
  auto count = profile.loss_fraction.size();
  for (std::size_t s = 0; s < count; s += static_cast<std::size_t>(stride)) {
    std::printf("%8zu %14.1f %9.1f%%\n", s + 1, profile.avg_rtt_ms[s],
                profile.loss_fraction[s] * 100.0);
  }
}

}  // namespace wow::bench
