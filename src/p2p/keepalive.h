#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/mem_estimate.h"
#include "common/ring_id.h"
#include "common/time.h"
#include "common/trace.h"
#include "p2p/connection_table.h"
#include "p2p/node_config.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// Unanswered keepalive probes after which a connection is dropped
/// (§IV-B).  The oracle's dead-node grace is built from it too.
inline constexpr int kPingRetries = 3;
/// Floor for the adaptive keepalive probe RTO; its ceiling is
/// ping_interval / 2 so adaptation only ever detects death faster
/// than the fixed schedule (the oracle's grace bound stays valid).
inline constexpr SimDuration kPingRtoMin = 250 * kMillisecond;
/// Flap quarantine: kFlapThreshold flaps (connections that die young)
/// inside one flap window quarantine the peer for
/// kQuarantineBase * 2^episode, capped (keepalive.cpp).  During it no
/// ACTIVE attempt (CTM, link, shortcut) targets the peer; passive
/// accepts stay open so a one-sided quarantine converges.
inline constexpr int kFlapThreshold = 3;
inline constexpr SimDuration kQuarantineBase = 15 * kSecond;

/// Keepalive + peer-health service (§IV-B, PR 4's adaptive layer).
///
/// Owns the per-connection probe episodes (ping/pong with Karn-filtered
/// RTT sampling), the durable per-peer health memory (RTT estimate that
/// warm-starts re-established connections, flap history), and the flap
/// quarantine policy.  Talks to the rest of the node only through the
/// connection table and flight recorder it shares and the two hooks
/// below.
class KeepaliveManager {
 public:
  struct Hooks {
    /// Send a link frame over `c` (direct, or wrapped through its relay
    /// agent — the owner knows how).
    std::function<void(const Connection& c, const LinkFrame& frame)>
        send_link_frame;
    /// A connection exceeded its probe budget; drop it (no Close).
    std::function<void(const Address& peer, DisconnectCause cause)>
        drop_connection;
  };

  KeepaliveManager(sim::TimerService& timers, Tracer& tracer, Logger& logger,
                   const NodeConfig& config, ConnectionTable& table,
                   FlightRecorder& flight, NodeStats& stats,
                   const std::string& trace_node,
                   const std::string& log_component, Hooks hooks)
      : timers_(timers), tracer_(tracer), logger_(logger), config_(config),
        table_(table), flight_(flight), stats_(stats),
        trace_node_(trace_node), log_component_(log_component),
        hooks_(std::move(hooks)) {}

  ~KeepaliveManager() { stop(); }
  KeepaliveManager(const KeepaliveManager&) = delete;
  KeepaliveManager& operator=(const KeepaliveManager&) = delete;

  /// Arm the periodic sweep, first firing after `first_delay` (the
  /// owner jitters it so a fleet doesn't tick in lockstep).
  void start(SimDuration first_delay);
  /// Cancel the sweep and clear every probe episode and health record.
  void stop();

  /// A pong arrived for `frame.sender`: close the probe episode and,
  /// when Karn's rule allows, feed the RTT estimators.
  void on_pong(const LinkFrame& frame);

  /// The owner dropped a connection: forget its probe episode.  (Flap
  /// accounting is a separate, later call — note_flap — so the owner
  /// controls event ordering.)
  void erase_ping_state(const Address& peer) { ping_states_.erase(peer); }

  /// Fold a clean RTT sample into the peer's durable health record (and
  /// count it); the live connection's estimator is updated separately.
  void note_rtt(const Address& peer, SimDuration sample);

  /// Record a connection loss for flap accounting; may begin a
  /// quarantine episode.  `lifetime` is how long the link demonstrably
  /// worked (last_heard - established).
  void note_flap(const Address& peer, SimDuration lifetime);

  /// Begin (or escalate) a quarantine episode immediately, bypassing
  /// flap accounting — the misbehavior ledger's verdict (DESIGN §16).
  /// Same escalation schedule as flap quarantine: base * 2^level,
  /// capped.
  void punish(const Address& peer);

  /// Warm-start a fresh connection's RTT estimator from the peer's
  /// durable health record.
  void seed_estimator(Connection& c) const;

  /// Drop health records untouched for three flap windows (and past
  /// their quarantine) whose peer is no longer connected.
  void decay_health();

  /// True while active attempts toward `peer` are suppressed after
  /// repeated flaps.
  [[nodiscard]] bool is_quarantined(const Address& peer) const;
  /// When the current quarantine lapses (0 = not quarantined).
  [[nodiscard]] SimTime quarantine_until(const Address& peer) const;
  /// Smoothed RTT toward a peer (0 = no clean sample yet).
  [[nodiscard]] SimDuration srtt_of(const Address& peer) const;
  /// SRTT + 4*RTTVAR for the peer, from the live connection or the
  /// durable health record; 0 when adaptive timers are off or no sample
  /// exists.
  [[nodiscard]] SimDuration peer_rto_hint(const Address& peer) const;

  /// Cooldown gate for relay→direct upgrade probes (stored with the
  /// peer's health so it survives the tunnel itself).
  [[nodiscard]] SimTime next_direct_probe(const Address& peer) const;
  void set_next_direct_probe(const Address& peer, SimTime when) {
    peer_health_[peer].next_direct_probe = when;
  }

  /// Probe episodes currently tracked; bounded by the number of held
  /// connections (regression guard for the churn leak).
  [[nodiscard]] std::size_t ping_state_count() const {
    return ping_states_.size();
  }

  /// Estimated heap bytes of dynamic state (probe episodes + durable
  /// peer health) — the part the §14 protocol-state budget covers.
  [[nodiscard]] std::size_t state_bytes() const {
    return mem::tree_map_bytes(ping_states_) +
           mem::hash_map_bytes(peer_health_);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  /// One keepalive probe episode for an idle connection.  Erased when
  /// the connection turns non-idle, answers, or is dropped — so the map
  /// stays bounded by the table size no matter how often peers churn.
  struct PingState {
    int outstanding = 0;
    SimTime last_sent = 0;
    std::uint32_t token = 0;
    /// Karn: only a pong answering a sole un-retransmitted probe is an
    /// unambiguous RTT sample.
    bool clean = false;
  };

  /// Per-peer health memory, surviving the connection itself: the RTT
  /// estimate seeds re-link attempts after a drop, and the flap history
  /// drives quarantine.
  struct PeerHealth {
    SimDuration srtt = 0;
    SimDuration rttvar = 0;
    int flaps = 0;
    SimTime first_flap = 0;  // anchor of the current flap window
    int quarantine_level = 0;
    SimTime quarantine_until = 0;
    /// Cooldown for relay→direct upgrade probes.
    SimTime next_direct_probe = 0;
    SimTime last_update = 0;
  };

  void sweep();
  /// Begin (or escalate) a quarantine episode: base * 2^level, capped.
  /// `reason` tags the trace event and log line of a punishment (null
  /// for a flap quarantine).
  void begin_quarantine(const Address& peer, PeerHealth& h,
                        const char* reason);

  sim::TimerService& timers_;
  Tracer& tracer_;
  Logger& logger_;
  const NodeConfig& config_;
  ConnectionTable& table_;
  FlightRecorder& flight_;
  NodeStats& stats_;
  const std::string& trace_node_;
  const std::string& log_component_;
  Hooks hooks_;

  /// Keepalive probe episodes, one per currently-idle connection.
  std::map<RingId, PingState> ping_states_;
  std::uint32_t next_ping_token_ = 1;
  /// Durable per-peer health (RTT memory, flap/quarantine state).
  std::unordered_map<Address, PeerHealth, RingIdHash> peer_health_;
  sim::TimerHandle timer_;
  bool running_ = false;
};

}  // namespace wow::p2p
