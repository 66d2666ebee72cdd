#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/mem_estimate.h"
#include "common/time.h"
#include "common/trace.h"
#include "p2p/connection_table.h"
#include "p2p/edge.h"
#include "p2p/node_config.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// While a pair converses through a relay tunnel, a direct link is
/// re-attempted this often (the relay→direct upgrade probe).
inline constexpr SimDuration kRelayProbeInterval = 30 * kSecond;

/// Relay-tunnel service (§V-B fallback): when two NATed peers cannot
/// link directly, converse through a mutual neighbor.
///
/// Owns every RelayFrame concern: forwarding on behalf of tunneled
/// pairs (we are the agent), the tunnel handshake (candidate agents
/// tried nearest-on-the-ring first), consuming inner frames at the
/// tunnel endpoint, installing kRelay connections, and the periodic
/// relay→direct upgrade probes.
class RelayAgent {
 public:
  struct Hooks {
    /// An inner routed frame surfaced at the tunnel endpoint.
    std::function<void(RoutedPacket packet, const net::Endpoint& from)>
        on_routed;
    /// An inner link frame the tunnel does not consume itself (kPong
    /// RTT sampling) — same path as a direct link frame.
    std::function<void(const LinkFrame& frame, const net::Endpoint& from)>
        on_link_frame;
    /// Send a link frame over an existing connection (the owner wraps
    /// through the agent when the connection is itself a tunnel).
    std::function<void(const Connection& c, const LinkFrame& frame)>
        send_link_frame;
    std::function<void(const Address& peer, DisconnectCause cause)>
        drop_connection;
    std::function<std::vector<transport::Uri>()> local_uris;
    /// Is a link handshake toward `peer` already in flight?
    std::function<bool(const Address& peer)> link_attempting;
    /// Was a link attempt toward `peer` started recently (bounded
    /// memory)?  Optional; part of the tunnel-request mutual-interest
    /// gate (DESIGN §16).
    std::function<bool(const Address& peer)> recently_tried;
    /// Is `peer` quarantined by the keepalive health store?  Optional.
    std::function<bool(const Address& peer)> is_quarantined;
    /// Score the SOURCE ENDPOINT of a forged relay frame on the owner's
    /// misbehavior ledger (never a claimed address).  Optional.
    std::function<void(const net::Endpoint& from, int weight)>
        note_misbehavior;
    /// Begin a direct link handshake (the upgrade probe).
    std::function<void(const Address& peer, ConnectionType type,
                       const std::vector<transport::Uri>& uris)>
        link_start;
    std::function<SimDuration(const Address& peer)> peer_rto_hint;
    /// Upgrade-probe cooldown, kept in the peer-health store so it
    /// survives the tunnel itself.
    std::function<SimTime(const Address& peer)> next_direct_probe;
    std::function<void(const Address& peer, SimTime when)>
        set_next_direct_probe;
    /// Warm-start a fresh connection's RTT estimator.
    std::function<void(Connection& c)> seed_estimator;
    /// A kRelay connection entered the table: re-check routability.
    std::function<void()> update_routable;
    /// Post an entry on the owning node's flight recorder (optional —
    /// isolation tests wire fewer hooks).
    std::function<void(FlightKind kind, const Address& peer)> record_flight;
  };

  RelayAgent(sim::TimerService& timers, Tracer& tracer, Logger& logger,
             const NodeConfig& config, ConnectionTable& table,
             NodeStats& stats, EdgeFactory& edges,
             const std::string& trace_node, const std::string& log_component,
             Hooks hooks)
      : timers_(timers), tracer_(tracer), logger_(logger), config_(config),
        table_(table), stats_(stats), edges_(edges),
        trace_node_(trace_node), log_component_(log_component),
        hooks_(std::move(hooks)) {}

  RelayAgent(const RelayAgent&) = delete;
  RelayAgent& operator=(const RelayAgent&) = delete;

  /// A relay tunnel frame arrived: forward it (we are the agent) or
  /// consume the inner frame (we are the tunnel endpoint).
  void handle_frame(RelayFrame relay, const net::Endpoint& from);

  /// Begin a tunnel handshake toward an unreachable near peer.
  void start_attempt(const Address& peer);
  /// Close the book on an in-flight attempt (established / moot /
  /// exhausted); no-op when none is pending.
  void finish_attempt(const Address& peer, const char* outcome);
  [[nodiscard]] bool attempting(const Address& peer) const {
    return relay_attempts_.count(peer) != 0;
  }

  /// Periodic relay→direct upgrade probes (from the maintenance tick).
  void maintain();

  /// stop(): cancel every handshake timer and drop the attempts.
  void abort_all();

  /// Estimated heap bytes of dynamic state (in-flight tunnel
  /// handshakes; empty in steady state).
  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t bytes = mem::hash_map_bytes(relay_attempts_);
    for (const auto& [peer, attempt] : relay_attempts_) {
      bytes += mem::vector_bytes(attempt.candidates);
    }
    return bytes;
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  /// An in-flight relay tunnel handshake: candidate agents are tried in
  /// sequence, nearest (on the ring) to the unreachable peer first.
  struct RelayAttempt {
    std::vector<Address> candidates;
    std::size_t index = 0;
    std::uint32_t token = 0;
    sim::TimerHandle timer;
    SimTime started = 0;
    /// Trace span over the whole attempt (0 = no sink).
    std::uint64_t span = 0;
  };

  /// Link-level frame that arrived wrapped in a relay tunnel.  `from`
  /// is the datagram's source endpoint (normally the agent) — defense
  /// attribution only.
  void handle_relay_link(const LinkFrame& frame, const RelayFrame& outer,
                         const net::Endpoint& from);
  /// Count + record a rejected forged/unsolicited relay frame; scores
  /// `from` only when `score` is set (evidence must be first-hand).
  void reject_forged(const Address& claimed, const net::Endpoint& from,
                     const char* reason, bool score);
  void send_request(const Address& peer);
  void on_timeout(const Address& peer);
  /// Install a kRelay connection tunneled through `agent`.
  void add_relay_connection(const Address& peer, const Address& agent,
                            const net::Endpoint& agent_endpoint,
                            const std::vector<transport::Uri>& uris);

  sim::TimerService& timers_;
  Tracer& tracer_;
  Logger& logger_;
  const NodeConfig& config_;
  ConnectionTable& table_;
  NodeStats& stats_;
  EdgeFactory& edges_;
  const std::string& trace_node_;
  const std::string& log_component_;
  Hooks hooks_;

  /// In-flight relay tunnel handshakes, keyed by the unreachable peer.
  std::unordered_map<Address, RelayAttempt, RingIdHash> relay_attempts_;
  std::uint32_t next_relay_token_ = 1;
};

}  // namespace wow::p2p
