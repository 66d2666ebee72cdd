#include "p2p/shortcut_overlord.h"

#include <algorithm>
#include <vector>

namespace wow::p2p {

void ShortcutOverlord::on_traffic(const Address& peer, SimTime now) {
  Entry& e = scores_[peer];
  // Continuous-time form of s(i+1) = max(s(i) + a(i) - c, 0).
  double leaked = config_.service_rate * to_seconds(now - e.last_update);
  e.score = std::max(e.score - leaked, 0.0) + 1.0;
  e.last_update = now;

  if (!config_.enabled || e.score < config_.threshold) return;
  // Every gate below is a pure query ending in the same return, so their
  // order cannot change the answer.  The one that stops a packet to a
  // directly connected peer — every packet, once a shortcut is up — goes
  // first.
  if (hooks_.has_connection(peer) || hooks_.is_linking(peer)) return;
  SimDuration cooldown = kShortcutRetryCooldown;
  if (hooks_.retry_cooldown_hint) {
    SimDuration hint = hooks_.retry_cooldown_hint(peer);
    if (hint > 0) cooldown = hint;
  }
  if (now - e.last_attempt < cooldown) return;
  if (hooks_.is_quarantined && hooks_.is_quarantined(peer)) return;
  if (hooks_.shortcut_count() >=
      static_cast<std::size_t>(config_.max_shortcuts)) {
    return;
  }
  e.last_attempt = now;
  ++requested_;
  hooks_.request_shortcut(peer);
}

void ShortcutOverlord::sweep(SimTime now) {
  std::vector<Address> stale;
  for (const auto& [addr, e] : scores_) {
    if (now - e.last_update > kShortcutEntryExpiry) stale.push_back(addr);
  }
  for (const Address& a : stale) scores_.erase(a);
}

double ShortcutOverlord::score_of(const Address& peer, SimTime now) const {
  auto it = scores_.find(peer);
  if (it == scores_.end()) return 0.0;
  double leaked =
      config_.service_rate * to_seconds(now - it->second.last_update);
  return std::max(it->second.score - leaked, 0.0);
}

}  // namespace wow::p2p
