#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/mem_estimate.h"
#include "common/ring_id.h"
#include "common/time.h"
#include "p2p/packet.h"
#include "p2p/shortcut_config.h"

namespace wow::p2p {

/// Minimum spacing between connect attempts to the same node, so a lost
/// CTM or slow linking isn't spammed; the ceiling of the adaptive hint.
inline constexpr SimDuration kShortcutRetryCooldown = 15 * kSecond;
/// Scores idle longer than this are dropped from the table.
inline constexpr SimDuration kShortcutEntryExpiry = 10 * kMinute;

/// Decentralized adaptive shortcut policy (§IV-E).
///
/// For each remote node the local node exchanges traffic with, keep the
/// paper's virtual-queue score
///
///     s(i+1) = max(s(i) + a(i) - c, 0)
///
/// where a(i) is the packets exchanged in time slot i and c the constant
/// service rate.  We integrate the same recurrence in continuous time:
/// on each packet the score first leaks c * elapsed, then gains 1.
/// When a destination's score crosses the threshold the overlord asks
/// the node to send a Connect-To-Me and establish a single-hop shortcut.
class ShortcutOverlord {
 public:
  using Config = ShortcutConfig;

  /// Callbacks into the owning node.
  struct Hooks {
    std::function<bool(const Address&)> has_connection;
    std::function<bool(const Address&)> is_linking;
    std::function<std::size_t()> shortcut_count;
    /// Fire a CTM requesting a shortcut connection.
    std::function<void(const Address&)> request_shortcut;
    /// Flap quarantine gate: true suppresses a shortcut request to this
    /// peer (the score keeps integrating; the attempt fires once the
    /// quarantine lapses).  Optional.
    std::function<bool(const Address&)> is_quarantined;
    /// Adaptive spacing between attempts to this peer (0 = use
    /// kShortcutRetryCooldown).  Derived from the peer's measured RTT so
    /// a nearby peer retries quickly and a distant one is not spammed.
    /// Optional.
    std::function<SimDuration(const Address&)> retry_cooldown_hint;
  };

  ShortcutOverlord(Config config, Hooks hooks)
      : config_(config), hooks_(std::move(hooks)) {}

  /// Record one data packet exchanged with `peer` (sent or received) at
  /// simulated time `now`; may trigger a shortcut request.
  void on_traffic(const Address& peer, SimTime now);

  /// Periodic housekeeping: expire stale score entries.
  void sweep(SimTime now);

  void reset() { scores_.clear(); }

  [[nodiscard]] double score_of(const Address& peer, SimTime now) const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t shortcuts_requested() const {
    return requested_;
  }

  /// Estimated heap bytes of dynamic state (traffic score entries,
  /// bounded by the sweep's kShortcutEntryExpiry).
  [[nodiscard]] std::size_t state_bytes() const {
    return mem::hash_map_bytes(scores_);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  struct Entry {
    double score = 0.0;
    SimTime last_update = 0;
    SimTime last_attempt = -(1LL << 60);
  };

  Config config_;
  Hooks hooks_;
  std::unordered_map<Address, Entry, RingIdHash> scores_;
  std::uint64_t requested_ = 0;
};

}  // namespace wow::p2p
