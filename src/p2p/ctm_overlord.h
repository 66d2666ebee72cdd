#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/mem_estimate.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/trace.h"
#include "p2p/connection_table.h"
#include "p2p/misbehavior.h"
#include "p2p/node_config.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// CTM request timeout-with-retry: the ceiling of the adaptive clamp
/// (and the fixed-mode timeout, which expires with no retries — the
/// seed behavior) and the adaptive retry budget.
inline constexpr SimDuration kCtmRtoMax = 2 * kMinute;
inline constexpr int kCtmMaxRetries = 2;

/// Connect-To-Me service (§IV-B) plus the near/far acquisition policy
/// that drives it.
///
/// Owns the pending-CTM ledger (tokens, adaptive retry budget, the
/// node-level CTM round-trip estimator), the join/stabilization
/// announce (§IV-C), and the structured-near / structured-far overlords
/// — everything that decides WHICH ring connections to acquire.  The
/// actual packet movement and link handshakes stay behind the hooks.
class CtmOverlord {
 public:
  struct Hooks {
    std::function<bool()> running;
    /// Near coverage on both ring sides (Node::routable).
    std::function<bool()> routable;
    /// Greedy-route a packet from this node.
    std::function<void(RoutedPacket packet)> route;
    /// Forward a packet through a specific connection (join announces
    /// are source-routed through their agent).
    std::function<void(const Connection& next, RoutedPacket packet)>
        forward_to;
    std::function<std::vector<transport::Uri>()> local_uris;
    /// Begin a link handshake toward `peer` over its advertised URIs.
    std::function<void(const Address& peer, ConnectionType type,
                       const std::vector<transport::Uri>& uris)>
        link_start;
    std::function<bool(const Address& peer)> is_quarantined;
    /// Re-check first-routable after a role upgrade touched the table.
    std::function<void()> update_routable;
    /// A gossip peer sample arrived in a CTM reply (optional): the owner
    /// feeds it to the bootstrap peer cache.  `source` is the responder
    /// that offered the sample — the cache's poison-resistance tracks
    /// per-source provenance (DESIGN §16).
    std::function<void(const Address& peer,
                       const std::vector<transport::Uri>& uris,
                       const Address& source)>
        note_peer;
  };

  CtmOverlord(sim::TimerService& timers, Rng& rng, Tracer& tracer,
              const NodeConfig& config, ConnectionTable& table,
              FlightRecorder& flight, NodeStats& stats,
              const std::string& trace_node, Hooks hooks)
      : timers_(timers), rng_(rng), tracer_(tracer), config_(config),
        table_(table), flight_(flight), stats_(stats),
        trace_node_(trace_node), hooks_(std::move(hooks)) {}

  CtmOverlord(const CtmOverlord&) = delete;
  CtmOverlord& operator=(const CtmOverlord&) = delete;

  /// start(): stabilization fires immediately on the first tick.
  void on_start() { last_stabilize_ = -(1LL << 60); }
  /// stop(): drop every pending request and the RTT estimator.
  void reset();

  /// Ask for a connection to a (known) address now.
  void initiate(const Address& target, ConnectionType type);
  /// Announce ourselves to our own ring position via forwarding agents.
  void send_join();

  /// `from` is the endpoint the datagram carrying the packet arrived
  /// from (empty for locally-looped packets) — observability only: CTM
  /// packets travel multi-hop, so their claimed src is unauthenticated
  /// and never feeds the misbehavior ledger (DESIGN §16).
  void handle_request(const RoutedPacket& packet, const net::Endpoint& from);
  void handle_reply(const RoutedPacket& packet, const net::Endpoint& from);

  /// Ring stabilization cadence (fast while the neighborhood is in
  /// flux, slow once quiet).
  void maintain_near();
  /// Keep `far_target` structured-far links via harmonic sampling.
  void maintain_far();
  /// Retry / expire pending CTMs (from the maintenance tick).
  void sweep();

  /// A near/leaf/relay connection came or went: announce aggressively
  /// for a minute so the hint-ratchet reconverges.
  void note_neighborhood_change() {
    fast_stabilize_until_ = timers_.now() + kMinute;
  }

  /// Current CTM request timeout (adaptive clamp, or kCtmRtoMax fixed).
  [[nodiscard]] SimDuration ctm_timeout() const;
  /// CTM requests awaiting a reply or retry; bounded by the sweep.
  [[nodiscard]] std::size_t pending_count() const {
    return pending_ctms_.size();
  }

  /// Estimated heap bytes of dynamic state (pending CTMs + the replay
  /// window ring).
  [[nodiscard]] std::size_t state_bytes() const {
    return mem::tree_map_bytes(pending_ctms_) +
           replay_window_.capacity() * sizeof(AnsweredCtm);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  struct PendingCtm {
    Address target;
    ConnectionType type;
    SimTime sent;
    /// Trace correlation id of the request→reply lifecycle span (0 when
    /// no sink is attached; never read by protocol logic).
    std::uint64_t span = 0;
    /// Retransmissions left after an adaptive timeout (join CTMs get 0:
    /// stabilization re-announces them anyway).
    int retries_left = 0;
    /// Karn filter: a reply to a retransmitted request is ambiguous and
    /// must not feed the CTM RTT estimator.
    bool retransmitted = false;
  };

  /// One answered request the replay window remembers: a duplicate
  /// (src, token) inside the window is a replay (or a retransmission
  /// whose reply was lost — indistinguishable without crypto, so the
  /// duplicate is answered minimally rather than dropped).
  struct AnsweredCtm {
    Address src;
    std::uint32_t token = 0;
  };

  /// True when (src, token) was already answered; records it otherwise.
  [[nodiscard]] bool check_replay(const Address& src, std::uint32_t token);

  /// Next request token: keyed-hash stream with defenses on (guessed-
  /// token reply spray misses, DESIGN §16), sequential otherwise.
  [[nodiscard]] std::uint32_t mint_token() {
    if (!config_.defenses_enabled) return next_ctm_token_++;
    std::uint32_t token = defense_token(table_.self(), next_ctm_token_++);
    while (token == 0 || pending_ctms_.count(token) != 0) ++token;
    return token;
  }

  /// Retransmit a pending CTM that timed out.
  void retry(std::uint32_t token, PendingCtm& pending);
  /// Near-link admission: true when `peer` would rank within
  /// near_per_side of self on its ring side given the near links we
  /// already hold.  The mirror image of Node's retention sweep — the
  /// two policies must agree or every stabilize round re-acquires the
  /// 2-hop-neighbor hints the sweep just closed.
  [[nodiscard]] bool wants_near(const Address& peer) const;
  [[nodiscard]] double estimate_network_size() const;
  [[nodiscard]] Address pick_far_target();

  sim::TimerService& timers_;
  Rng& rng_;
  Tracer& tracer_;
  const NodeConfig& config_;
  ConnectionTable& table_;
  FlightRecorder& flight_;
  NodeStats& stats_;
  const std::string& trace_node_;
  Hooks hooks_;

  std::map<std::uint32_t, PendingCtm> pending_ctms_;
  std::uint32_t next_ctm_token_ = 1;
  /// Bounded ring of recently-answered (src, token) pairs — the CTM
  /// replay window (DESIGN §16).  Holds kCtmReplayWindow entries; only
  /// populated while defenses are enabled.
  std::vector<AnsweredCtm> replay_window_;
  std::size_t replay_cursor_ = 0;
  /// CTM round-trip estimator (request → reply over the overlay), node
  /// level: CTM latency is dominated by multi-hop routing, not by any
  /// single peer's link.
  SimDuration ctm_srtt_ = 0;
  SimDuration ctm_rttvar_ = 0;
  SimTime last_stabilize_ = -(1LL << 60);
  /// While now < this, the ring neighborhood changed recently and
  /// stabilization announces run at the fast cadence.
  SimTime fast_stabilize_until_ = 0;
};

}  // namespace wow::p2p
