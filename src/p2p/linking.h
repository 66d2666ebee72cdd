#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/counters.h"
#include "common/mem_estimate.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/trace.h"
#include "p2p/edge.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// Handshake retransmission schedule per URI (§IV-B, §IV-D): the first
/// RTO, its growth factor per retransmission and the retransmissions
/// after the first send.  These are the paper's "conservative" Brunet
/// settings (footnote 2): a dead URI costs
/// kLinkInitialRto * (2^(kLinkMaxRetries+1) - 1) = 2.5 s * 63 ≈ 157 s
/// before the next URI is tried — which is exactly why UFL-UFL
/// shortcut setup takes ~200 s in Figure 4.
inline constexpr SimDuration kLinkInitialRto = 2500 * kMillisecond;
inline constexpr double kLinkBackoff = 2.0;
inline constexpr int kLinkMaxRetries = 5;

/// Outcome handed to the attempt's completion callback.
enum class LinkResult { kEstablished, kFailed };

/// Drives active linking attempts: for each target, walk its URI list,
/// retransmit link requests with exponential backoff, fall through to
/// the next URI on timeout, and resolve simultaneous-initiation races
/// via link-error messages (§IV-B "Linking protocol").
///
/// The engine owns only handshake state; established connections are
/// reported upward through the callbacks and live in the Node's
/// ConnectionTable.  It talks to the world through narrow seams only:
/// a TimerService for clocks/timers and an EdgeFactory for datagrams —
/// nothing here knows about the simulator.
class LinkingEngine {
 public:
  struct Callbacks {
    /// A handshake completed: peer address, its URI list, the endpoint
    /// that worked, connection type, and whether we initiated.
    std::function<void(const Address& peer,
                       const std::vector<transport::Uri>& uris,
                       const net::Endpoint& remote, ConnectionType type)>
        on_established;
    /// An active attempt exhausted every URI (after restarts).
    std::function<void(const Address& peer, ConnectionType type)> on_failed;
    /// A link reply told us our own public address as seen by the peer.
    std::function<void(const transport::Uri& uri)> on_observed_uri;
    /// Does a connection to this peer already exist?
    std::function<bool(const Address& peer)> has_connection;
    /// Adaptive seed for the attempt's RTO, from the peer's measured RTT
    /// history (0 = no estimate, use kLinkInitialRto).  Optional.
    std::function<SimDuration(const Address& peer)> rto_hint;
    /// A clean (Karn-filtered: single transmission) handshake round-trip
    /// completed; feeds the peer's RTT estimator.  Optional.
    std::function<void(const Address& peer, SimDuration sample)>
        on_rtt_sample;
    /// Flap quarantine gate: true suppresses starting an active attempt
    /// to this peer.  Passive accepts are never gated, so a one-sided
    /// quarantine still converges.  Optional.
    std::function<bool(const Address& peer)> is_quarantined;
    /// An identity-mismatched link reply was rejected (observability
    /// only).  Deliberately NOT a misbehavior score: an honest node
    /// answering a misdirected probe with its true identity looks
    /// exactly like this — e.g. after a forged census planted a phantom
    /// origin carrying a REAL node's URIs, the probed node's truthful
    /// reply would otherwise get it quarantined (adversary-steered
    /// framing).  Rejection alone is the containment.  Optional.
    std::function<void(const net::Endpoint& from)> reply_rejected;
  };

  /// `public_uri_first` orders each peer's URIs public before private,
  /// as the paper's implementation does (§V-B); false is the ordering
  /// ablation.
  LinkingEngine(sim::TimerService& timers, Rng& rng, Tracer& tracer,
                EdgeFactory& edges, Address self, bool public_uri_first,
                Callbacks callbacks, bool defenses = true)
      : timers_(timers), rng_(rng), tracer_(tracer), edges_(edges),
        self_(self), public_uri_first_(public_uri_first),
        callbacks_(std::move(callbacks)), defenses_(defenses) {}

  ~LinkingEngine() { abort_all(); }
  LinkingEngine(const LinkingEngine&) = delete;
  LinkingEngine& operator=(const LinkingEngine&) = delete;

  /// Begin an active linking attempt.  `target` may be the zero address
  /// when unknown (leaf bootstrap): the peer's address is learnt from
  /// its link reply.  No-op if an attempt to the same known target is
  /// already in flight.
  void start(const Address& target, ConnectionType type,
             std::vector<transport::Uri> uris);

  /// Process an inbound link-level frame addressed to us.
  void handle_frame(const LinkFrame& frame, const net::Endpoint& from);

  /// True if an attempt to `target` is active (handshaking or waiting in
  /// race backoff).
  [[nodiscard]] bool attempting(const Address& target) const;

  /// True if an attempt to `target` was STARTED recently (bounded ring
  /// memory, regardless of outcome).  The relay agent's mutual-interest
  /// gate uses this: a tunnel request from a peer we never tried to link
  /// to is unsolicited (DESIGN §16).
  [[nodiscard]] bool recently_tried(const Address& target) const {
    for (const RecentAttempt& r : recent_) {
      if (r.when != 0 && r.target == target) return true;
    }
    return false;
  }

  /// Cancel all in-flight attempts (node shutdown / migration).
  void abort_all();

  /// Linking counters, one `X(field)` each (common/counters.h).  The
  /// node registers each as a `link_<field>` counter.
#define WOW_LINK_COUNTERS(X)                                          \
  X(attempts_started)                                                 \
  /* We initiated. */                                                 \
  X(established_active)                                               \
  /* Peer initiated. */                                               \
  X(established_passive)                                              \
  /* Gave up on a URI, tried the next. */                             \
  X(uri_failovers)                                                    \
  X(race_errors_sent)                                                 \
  X(race_aborts)                                                      \
  X(failures)                                                         \
  /* Replies whose claimed sender did not match the attempt's target  \
     (or, for zero-target bootstrap probes, whose source endpoint was \
     not the one probed) — rejected as forged. */                     \
  X(replies_rejected)
  struct Stats {
    WOW_COUNTERS(Stats, WOW_LINK_COUNTERS)
  };
#undef WOW_LINK_COUNTERS
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Estimated heap bytes of dynamic state (in-flight link attempts;
  /// empty in steady state).
  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t bytes = mem::tree_map_bytes(attempts_);
    for (const auto& [token, attempt] : attempts_) {
      bytes += mem::vector_bytes(attempt.uris);
    }
    return bytes;
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  struct Attempt {
    Address target;  // zero when unknown (leaf)
    ConnectionType type;
    std::uint32_t token;
    std::vector<transport::Uri> uris;
    std::size_t uri_index = 0;
    int retries_left = 0;
    SimDuration rto = 0;
    /// Per-attempt RTO seed: kLinkInitialRto, or the clamped adaptive
    /// hint when the peer has RTT history.  Every reset (URI failover,
    /// restart resume, race retarget) restarts from this value.
    SimDuration initial_rto = 0;
    int restarts = 0;
    bool in_restart_wait = false;
    sim::TimerHandle timer;
    SimTime started = 0;
    /// When the most recent request was transmitted, and whether that
    /// was the attempt's only transmission so far — Karn's rule: a reply
    /// is an RTT sample only when no retransmission makes the pairing
    /// ambiguous.
    SimTime last_send = 0;
    bool clean = false;
    /// Trace span covering the whole attempt (every URI tried, each
    /// RTO/backoff step, race aborts and restarts).  0 when no sink is
    /// attached; never read by protocol logic.
    std::uint64_t span = 0;
  };

  void send_request(Attempt& attempt);
  void on_timeout(std::uint32_t token);
  /// Attempt-scoped trace event; no-op without a sink.
  void trace_attempt(const Attempt& attempt, const char* event);
  void schedule_restart(Attempt& attempt);
  void finish(std::uint32_t token);
  [[nodiscard]] Attempt* by_token(std::uint32_t token);
  [[nodiscard]] Attempt* by_target(const Address& target);
  /// Order a peer's URI list according to public_uri_first_.
  [[nodiscard]] std::vector<transport::Uri> order_uris(
      std::vector<transport::Uri> uris) const;

  /// One slot of the recent-attempt memory (zero `when` = empty).
  struct RecentAttempt {
    Address target;
    SimTime when = 0;
  };

  sim::TimerService& timers_;
  Rng& rng_;
  Tracer& tracer_;
  EdgeFactory& edges_;
  Address self_;
  bool public_uri_first_;
  Callbacks callbacks_;
  bool defenses_;
  std::uint32_t next_token_ = 1;
  std::map<std::uint32_t, Attempt> attempts_;
  /// Bounded rolling memory of recent attempt targets (see
  /// recently_tried); fixed-size, overwritten oldest-first.
  std::array<RecentAttempt, 16> recent_{};
  std::size_t recent_cursor_ = 0;
  Stats stats_;
};

}  // namespace wow::p2p
