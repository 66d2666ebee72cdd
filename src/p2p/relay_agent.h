#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mem_estimate.h"
#include "common/time.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"

namespace wow::p2p {

class Node;

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
  /// Reads the node's table, config, stats and edges, and calls its
  /// routing, link-frame, drop and keepalive paths directly.
  explicit RelayAgent(Node& node) : node_(node) {}

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

  Node& node_;

  /// In-flight relay tunnel handshakes, keyed by the unreachable peer.
  std::unordered_map<Address, RelayAttempt, RingIdHash> relay_attempts_;
  std::uint32_t next_relay_token_ = 1;
};

}  // namespace wow::p2p
