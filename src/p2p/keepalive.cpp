#include "p2p/keepalive.h"

#include <algorithm>
#include <vector>

namespace wow::p2p {

namespace {

/// A connection that lives less than this counts as a flap.
constexpr SimDuration kFlapLifetime = 30 * kSecond;
/// The window kFlapThreshold flaps must fall inside.
constexpr SimDuration kFlapWindow = 5 * kMinute;
/// Ceiling of the doubling quarantine.
constexpr SimDuration kQuarantineMax = 2 * kMinute;

}  // namespace

void KeepaliveManager::start(SimDuration first_delay) {
  running_ = true;
  timer_ = timers_.schedule(first_delay, [this] { sweep(); });
}

void KeepaliveManager::stop() {
  running_ = false;
  timers_.cancel(timer_);
  timer_ = {};
  ping_states_.clear();
  peer_health_.clear();
}

void KeepaliveManager::sweep() {
  if (!running_) return;
  SimTime now = timers_.now();
  // Fixed mode reschedules at the seed cadence (interval/2), which also
  // spaces the probes; adaptive mode wakes when the next probe or idle
  // threshold is due, clamped so a noisy estimator can't spin the timer.
  SimDuration next_wake = config_.ping_interval / 2;
  std::vector<Address> dead;
  table_.for_each([&](const Connection& c) {
    SimDuration idle = now - c.last_heard;
    if (idle < config_.ping_interval) {
      // Not idle: any probe episode is over.  Erasing here (plus on
      // drop) is what keeps the map bounded by the table size.
      ping_states_.erase(c.addr);
      if (config_.adaptive_timers) {
        next_wake = std::min(next_wake, config_.ping_interval - idle);
      }
      return;
    }
    PingState& ps = ping_states_[c.addr];
    if (ps.outstanding >= kPingRetries) {
      dead.push_back(c.addr);
      return;
    }
    // Probe spacing: fixed mode inherits the sweep cadence; adaptive
    // mode uses the connection's RTO with exponential (Karn) backoff
    // per unanswered probe, never slower than the fixed schedule.
    SimDuration spacing = config_.ping_interval / 2;
    if (config_.adaptive_timers && c.srtt != 0) {
      spacing = c.rto(kPingRtoMin, config_.ping_interval / 2);
      for (int i = 0; i < ps.outstanding; ++i) {
        spacing = std::min(spacing * 2, config_.ping_interval / 2);
      }
    }
    if (ps.outstanding > 0 && now - ps.last_sent < spacing) {
      if (config_.adaptive_timers) {
        next_wake = std::min(next_wake, ps.last_sent + spacing - now);
      }
      return;
    }
    ps.token = next_ping_token_++;
    ps.clean = ps.outstanding == 0;  // Karn: only an unrepeated probe
    ps.last_sent = now;
    ++ps.outstanding;
    LinkFrame ping;
    ping.type = LinkType::kPing;
    ping.sender = table_.self();
    ping.con_type = c.type;
    ping.token = ps.token;
    hooks_.send_link_frame(c, ping);
    ++stats_.pings_sent;
    if (config_.adaptive_timers) next_wake = std::min(next_wake, spacing);
  });
  for (const Address& a : dead) {
    hooks_.drop_connection(a, DisconnectCause::kKeepaliveTimeout);
  }

  if (config_.adaptive_timers) {
    next_wake = std::clamp(next_wake, 50 * kMillisecond,
                           config_.ping_interval / 2);
  } else {
    next_wake = config_.ping_interval / 2;
  }
  timer_ = timers_.schedule(next_wake, [this] { sweep(); });
}

void KeepaliveManager::on_pong(const LinkFrame& frame) {
  // Liveness was recorded by the datagram plane; here the probe
  // round-trip feeds the RTT estimator — only when Karn's rule allows.
  auto it = ping_states_.find(frame.sender);
  if (it == ping_states_.end()) return;
  if (it->second.clean && it->second.token == frame.token) {
    if (Connection* c = table_.find(frame.sender)) {
      SimDuration sample = timers_.now() - it->second.last_sent;
      c->rtt_sample(sample);
      note_rtt(frame.sender, sample);
      // RTT telemetry is volume-priced like packet events; key on the
      // (just-incremented) fleet sample count so each sample draws an
      // independent sampling verdict.
      if (tracer_.sample(TraceClass::kPacket, stats_.rtt_samples)) {
        tracer_.event(timers_.now(), "node", trace_node_, "conn.rtt",
                      {{"peer", frame.sender.brief()},
                       {"sample_ms", to_millis(sample)},
                       {"srtt_ms", to_millis(c->srtt)}});
      }
    }
  }
  ping_states_.erase(it);
}

void KeepaliveManager::note_rtt(const Address& peer, SimDuration sample) {
  if (sample < 0) return;
  ++stats_.rtt_samples;
  // With adaptive timers AND quarantine both off (the flyweight
  // profile) nothing ever reads the durable record — don't grow a
  // per-peer map at megascale.  Either feature alone keeps the memory.
  if (!config_.adaptive_timers && !config_.quarantine_enabled) return;
  PeerHealth& h = peer_health_[peer];
  rtt_update(h.srtt, h.rttvar, sample);
  h.last_update = timers_.now();
}

void KeepaliveManager::note_flap(const Address& peer, SimDuration lifetime) {
  if (!config_.quarantine_enabled) return;
  SimTime now = timers_.now();
  if (lifetime >= kFlapLifetime) {
    // A connection that held for a while proves the path works; decay
    // one quarantine level so an old episode is eventually forgiven.
    auto it = peer_health_.find(peer);
    if (it != peer_health_.end() && it->second.quarantine_level > 0) {
      --it->second.quarantine_level;
      it->second.last_update = now;
    }
    return;
  }
  PeerHealth& h = peer_health_[peer];
  if (h.flaps == 0 || now - h.first_flap > kFlapWindow) {
    h.flaps = 0;
    h.first_flap = now;
  }
  ++h.flaps;
  h.last_update = now;
  if (h.flaps < kFlapThreshold) return;
  // Enough flaps inside the window: quarantine, doubling per episode.
  begin_quarantine(peer, h, nullptr);
}

void KeepaliveManager::punish(const Address& peer) {
  // The misbehavior ledger crossed its threshold: quarantine NOW, no
  // flap accounting.  Reuses the flap-episode escalation schedule so
  // a repeat offender waits exponentially longer each time.
  begin_quarantine(peer, peer_health_[peer], "misbehavior");
}

void KeepaliveManager::begin_quarantine(const Address& peer, PeerHealth& h,
                                        const char* reason) {
  SimTime now = timers_.now();
  SimDuration duration = kQuarantineBase;
  for (int i = 0; i < h.quarantine_level; ++i) {
    duration = std::min(duration * 2, kQuarantineMax);
  }
  ++h.quarantine_level;
  h.quarantine_until = now + duration;
  h.flaps = 0;  // fresh window once the quarantine lapses
  h.last_update = now;
  ++stats_.quarantines;
  WOW_LOG(logger_, LogLevel::kInfo, now, log_component_,
          (reason != nullptr ? "punished " + peer.brief() + ": quarantined"
                             : "quarantined " + peer.brief()) +
              " for " + std::to_string(to_seconds(duration)) + "s (level " +
              std::to_string(h.quarantine_level) + ")");
  flight_.record(now, FlightKind::kQuarantine, peer.brief(),
                 h.quarantine_level,
                 static_cast<std::int32_t>(to_seconds(duration)));
  if (tracer_.enabled(TraceClass::kLifecycle)) {
    if (reason != nullptr) {
      tracer_.event(now, "node", trace_node_, "quarantine.begin",
                    {{"peer", peer.brief()},
                     {"level", h.quarantine_level},
                     {"duration_s", to_seconds(duration)},
                     {"reason", reason}});
    } else {
      tracer_.event(now, "node", trace_node_, "quarantine.begin",
                    {{"peer", peer.brief()},
                     {"level", h.quarantine_level},
                     {"duration_s", to_seconds(duration)}});
    }
  }
}

void KeepaliveManager::seed_estimator(Connection& c) const {
  auto health = peer_health_.find(c.addr);
  if (health != peer_health_.end()) {
    c.srtt = health->second.srtt;
    c.rttvar = health->second.rttvar;
  }
}

void KeepaliveManager::decay_health() {
  // Durable peer-health records decay: an entry untouched for three
  // flap windows (and past its quarantine) has nothing left to say.
  for (auto it = peer_health_.begin(); it != peer_health_.end();) {
    if (timers_.now() - it->second.last_update > 3 * kFlapWindow &&
        timers_.now() >= it->second.quarantine_until &&
        table_.find(it->first) == nullptr) {
      it = peer_health_.erase(it);
    } else {
      ++it;
    }
  }
}

bool KeepaliveManager::is_quarantined(const Address& peer) const {
  auto it = peer_health_.find(peer);
  return it != peer_health_.end() &&
         timers_.now() < it->second.quarantine_until;
}

SimTime KeepaliveManager::quarantine_until(const Address& peer) const {
  auto it = peer_health_.find(peer);
  return it == peer_health_.end() ? 0 : it->second.quarantine_until;
}

SimDuration KeepaliveManager::srtt_of(const Address& peer) const {
  if (const Connection* c = table_.find(peer); c != nullptr && c->srtt != 0) {
    return c->srtt;
  }
  auto it = peer_health_.find(peer);
  return it == peer_health_.end() ? 0 : it->second.srtt;
}

SimDuration KeepaliveManager::peer_rto_hint(const Address& peer) const {
  if (!config_.adaptive_timers) return 0;
  if (const Connection* c = table_.find(peer); c != nullptr && c->srtt != 0) {
    return c->srtt + 4 * c->rttvar;
  }
  auto it = peer_health_.find(peer);
  if (it != peer_health_.end() && it->second.srtt != 0) {
    return it->second.srtt + 4 * it->second.rttvar;
  }
  return 0;
}

SimTime KeepaliveManager::next_direct_probe(const Address& peer) const {
  auto it = peer_health_.find(peer);
  return it == peer_health_.end() ? 0 : it->second.next_direct_probe;
}

}  // namespace wow::p2p
