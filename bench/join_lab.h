#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wow/testbed.h"

namespace wow::bench {

/// Placement of the two endpoints in the Figure 4/5 experiments.
enum class Scenario { kUflUfl, kUflNwu, kNwuNwu };

[[nodiscard]] const char* to_string(Scenario scenario);

/// One join trial: a fresh node "B" is instantiated, joins the overlay,
/// and sends `icmp_count` echo requests at 1 s intervals to a
/// long-running node "A"; B is then terminated (§V-B).
struct TrialResult {
  /// Per-sequence-number outcome (index 0 = seq 1).
  std::vector<bool> replied;
  std::vector<double> rtt_ms;  // valid where replied
  /// Simulated seconds from B's start until it was fully routable.
  std::optional<double> routable_after_s;
  /// Seconds from B's start until a direct (shortcut) connection to A.
  std::optional<double> shortcut_after_s;
};

/// Aggregated over trials, per sequence number.
struct JoinProfile {
  std::vector<double> loss_fraction;
  std::vector<double> avg_rtt_ms;   // over replied packets
  std::vector<int> rtt_samples;
  std::vector<TrialResult> trials;
};

/// Runs the §V-B join experiment on a full-scale testbed.
class JoinLab {
 public:
  JoinLab(TestbedConfig config, SimDuration warmup = 14 * kMinute);

  /// Run `trials` trials of `scenario`; each trial uses a fresh virtual
  /// IP (a fresh ring position, as the paper rotated 10 IPs).
  JoinProfile run(Scenario scenario, int trials, int icmp_count = 400);

  [[nodiscard]] Testbed& testbed() { return bed_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  TrialResult run_trial(Scenario scenario, int icmp_count,
                        net::Ipv4Addr vip);

  Testbed bed_;
  sim::Simulator& sim_;
  int trial_counter_ = 0;
};

/// Render the profile as fixed-width rows every `stride` sequence
/// numbers (matches the granularity of the paper's Fig. 4 curves).
void print_profile(const std::string& title, const JoinProfile& profile,
                   int stride);

}  // namespace wow::bench
