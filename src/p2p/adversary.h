#pragma once

#include <cstdint>

#include "common/counters.h"
#include "common/rng.h"
#include "common/time.h"
#include "p2p/node.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// Deterministic byzantine-peer fabric (DESIGN §16).
///
/// Wraps a LIVE node — the adversary joins the overlay honestly, so it
/// owns real connections and a provable endpoint — and then abuses that
/// position: on a seeded timer it injects protocol-VALID frames (every
/// checksum correct, every field in range) whose semantics lie.  Each
/// behavior maps onto one self-defense mechanism:
///
///   spoof_ctm      spoofed-source CtmReply + forged link kReply frames
///                  with sprayed guessed tokens → keyed-hash tokens +
///                  link-reply identity check
///   replay_ctm     the same captured (src, token) CtmRequest re-sent
///                  every tick → the CTM replay window
///   forge_relay    relay headers with forged src, and tunnel kRequests
///                  installing phantom peers with no handshake → relay
///                  header sanity + the mutual-interest gate
///   forge_census   census frames fabricating in-arc foreign origins
///                  with a giant TTL → TTL capping + merge-rule noise
///   poison_gossip  CtmReply gossip samples planting phantom peers →
///                  PeerCache per-source caps + verified-first trust
///
/// The agent draws only from its OWN seeded Rng and never reads the
/// victim's state beyond the adversary node's legitimate connection
/// table, so a byzantine run stays a pure function of (seed, fraction,
/// behavior mix).  Phantom identities are derived ring-adjacent to each
/// victim, which is exactly what the containment oracle's
/// phantom_identity invariant hunts for.
struct AdversaryBehaviors {
  bool spoof_ctm = true;
  bool replay_ctm = true;
  bool forge_relay = true;
  bool forge_census = true;
  bool poison_gossip = true;
};

class AdversaryAgent {
 public:
  using Behaviors = AdversaryBehaviors;

  /// Injection counters, one `X(field)` each (common/counters.h).
#define WOW_ADVERSARY_COUNTERS(X) \
  X(ticks)                        \
  X(frames_injected)              \
  X(spoofed_ctm_replies)          \
  X(forged_link_replies)          \
  X(replayed_requests)            \
  X(forged_relay_frames)          \
  X(forged_census_frames)         \
  X(poisoned_samples)
  struct Stats {
    WOW_COUNTERS(Stats, WOW_ADVERSARY_COUNTERS)
  };
#undef WOW_ADVERSARY_COUNTERS

  AdversaryAgent(Node& node, sim::TimerService& timers, std::uint64_t seed,
                 Behaviors behaviors = Behaviors(),
                 SimDuration interval = 2 * kSecond)
      : node_(node), timers_(timers), rng_(seed), behaviors_(behaviors),
        interval_(interval) {}

  AdversaryAgent(const AdversaryAgent&) = delete;
  AdversaryAgent& operator=(const AdversaryAgent&) = delete;
  ~AdversaryAgent() { stop(); }

  /// Begin injecting (first burst after one jittered interval).
  void start();
  void stop();
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Behaviors& behaviors() const { return behaviors_; }
  [[nodiscard]] Node& node() { return node_; }

 private:
  void tick();
  /// One forged-frame burst against a chosen victim connection.
  void attack(const Connection& victim);
  /// A phantom identity ring-adjacent to `anchor` — close enough to
  /// fall inside a near gap (so merge/near logic would bite), distinct
  /// from every real identity with overwhelming probability.
  [[nodiscard]] Address phantom_near(const Address& anchor);
  void inject(const net::Endpoint& to, Bytes frame);

  Node& node_;
  sim::TimerService& timers_;
  Rng rng_;
  Behaviors behaviors_;
  SimDuration interval_;
  sim::TimerHandle timer_;
  bool active_ = false;
  /// Sprayed token guesses walk 1..64 — exactly the range a sequential
  /// mint would hand out, so they HIT legacy tokens and MISS keyed ones.
  std::uint32_t guess_ = 1;
  /// Fixed (src, token) of the "captured" CTM this agent replays.
  std::uint32_t replay_token_ = 0;
  Address replay_src_;
  Stats stats_;
};

}  // namespace wow::p2p
