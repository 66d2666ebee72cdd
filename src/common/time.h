#pragma once

#include <cstdint>

namespace wow {

/// Simulated time. All simulation timestamps are microseconds since the
/// start of the run; wall-clock time is never consulted so runs are
/// deterministic under a fixed RNG seed.
using SimTime = std::int64_t;

/// A duration in simulated microseconds.
using SimDuration = std::int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;

/// Convenience literals: `5 * kSecond`, `250 * kMillisecond`, ...

[[nodiscard]] constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

[[nodiscard]] constexpr double to_millis(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

[[nodiscard]] constexpr SimDuration from_seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

[[nodiscard]] constexpr SimDuration from_millis(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

/// Fold one round-trip sample into a smoothed estimator (RFC 6298):
/// the first sample (srtt == 0) sets srtt = s and rttvar = s/2; each
/// later one sets rttvar = (3·rttvar + |srtt − s|)/4, then
/// srtt = (7·srtt + s)/8.  The RTO built on top is the caller's.
constexpr void rtt_update(SimDuration& srtt, SimDuration& rttvar,
                          SimDuration sample) {
  if (srtt == 0) {
    srtt = sample;
    rttvar = sample / 2;
    return;
  }
  const SimDuration err = sample > srtt ? sample - srtt : srtt - sample;
  rttvar = (3 * rttvar + err) / 4;
  srtt = (7 * srtt + sample) / 8;
}

}  // namespace wow
