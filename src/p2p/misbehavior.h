#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/mem_estimate.h"
#include "common/ring_id.h"
#include "common/time.h"
#include "net/addr.h"

namespace wow::p2p {

/// Deterministic hard-to-guess token stream (DESIGN §16): SplitMix64
/// keyed by the node's ring address over a private counter.  Sequential
/// tokens (1, 2, 3, ...) let an adversary spray guessed replies and
/// complete handshakes it never saw; a keyed hash makes the spray miss
/// without drawing from the node's RNG — so enabling defenses cannot
/// perturb a seeded run's random sequence.  NOT cryptographic (the key
/// is the public ring address): a placeholder for signed identities.
[[nodiscard]] inline std::uint32_t defense_token(const RingId& self,
                                                 std::uint32_t counter) {
  std::uint64_t x =
      self.high64() ^
      (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(counter) + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  std::uint32_t t = static_cast<std::uint32_t>(x ^ (x >> 32));
  return t == 0 ? 1u : t;
}

/// Evidence weights for the misbehavior ledger.  Frame-layer evidence is
/// attributed to the SOURCE ENDPOINT (pre-authentication — the only
/// identity a datagram provably carries), never to the ring address a
/// frame claims: claimed sources are unauthenticated, and scoring them
/// would let an adversary frame an honest node by forging its address
/// (see DESIGN §16).
inline constexpr int kMisbehaviorParseReject = 1;  // unknown kind byte
inline constexpr int kMisbehaviorForgedRelay = 4;  // relay header lies

/// Score at which the owner is told to quarantine/drop the peer.
inline constexpr int kMisbehaviorThreshold = 8;
/// A source quiet for one full window starts from a clean score —
/// occasional corruption on an honest path never accumulates into a
/// quarantine.
inline constexpr SimDuration kMisbehaviorWindow = kMinute;
/// Token bucket for inbound CONTROL frames per source endpoint: burst
/// capacity and sustained per-second refill.  Data frames are never
/// shed (control-vs-data shed priority: an attacker flooding CTMs must
/// not take the data plane down with them; an attacker flooding data
/// only burns forwarding, which the checksum already bounds).
///
/// Sized for a RING LINK, not a single peer's chatter: one endpoint
/// bucket absorbs every multi-hop control frame the neighbor forwards
/// — census walks, fast-cadence stabilization announces, CTM relays —
/// which peaks around 10-20/s during a ring merge.  A shed anywhere
/// along a census walk kills the whole walk, so the sustained rate
/// carries ~10x headroom over that peak while still sitting orders of
/// magnitude under the floods it sheds.
inline constexpr int kRateLimitBurst = 256;
inline constexpr int kRateLimitPerSec = 128;
/// Sources tracked at once.  The map is bounded: when full, the
/// longest-untouched entry is evicted deterministically; admission
/// fails OPEN for untracked sources (an attacker cycling endpoints
/// buys amnesia, not amplification — each fresh endpoint still pays
/// the full scoring path before any quarantine evidence is lost).
inline constexpr std::size_t kLedgerMaxEntries = 1024;

/// Per-source-endpoint misbehavior ledger and control-frame rate
/// limiter — the node's self-defense bookkeeping (DESIGN §16).
///
/// Two independent mechanisms share the per-endpoint entry:
///   - note(): accumulate protocol-violation evidence (weights above).
///     Returns true exactly when this note crosses the threshold — the
///     owner then quarantines the peer behind the endpoint and drops the
///     connection.  The score resets on crossing (one punishment per
///     episode) and decays to zero after a quiet window.
///   - admit_control(): token-bucket admission for inbound control
///     frames (link/relay/census frames and non-data routed payloads).
///     Integer arithmetic throughout — tokens are stored scaled by
///     kSecond so refill is exact; no floats, no RNG, byte-identical
///     across runs and platforms.
///
/// Pure bookkeeping: no timers, no RNG, no I/O.  When no frame ever
/// misbehaves and no control frame exceeds the burst, the only cost on
/// the datagram path is one hash lookup per control frame.
class MisbehaviorLedger {
 public:
  /// Accumulate `weight` of evidence against `from`.  Returns true when
  /// this note crossed the threshold (score then resets).
  bool note(const net::Endpoint& from, int weight, SimTime now) {
    Entry* e = entry_for(from, now);
    if (e == nullptr) return false;  // table full of fresher offenders
    if (now - e->last_note > kMisbehaviorWindow) e->score = 0;
    e->score += weight;
    e->last_note = now;
    e->last_touch = now;
    if (e->score < kMisbehaviorThreshold) return false;
    e->score = 0;  // one punishment per episode
    return true;
  }

  /// Token-bucket admission for one control frame from `from`.  True =
  /// process the frame; false = shed it (the caller counts the shed).
  bool admit_control(const net::Endpoint& from, SimTime now) {
    Entry* e = entry_for(from, now);
    if (e == nullptr) return true;  // fail open when the table is full
    constexpr std::int64_t cap = std::int64_t{kRateLimitBurst} * kSecond;
    // Exact integer refill: elapsed microseconds * tokens-per-second
    // yields token-microseconds, the unit the bucket stores.
    std::int64_t refill = (now - e->last_refill) * kRateLimitPerSec;
    e->tokens = e->tokens + refill > cap ? cap : e->tokens + refill;
    e->last_refill = now;
    e->last_touch = now;
    if (e->tokens < kSecond) return false;
    e->tokens -= kSecond;
    return true;
  }

  /// Current decayed score of `from` (0 if untracked).
  [[nodiscard]] int score_of(const net::Endpoint& from, SimTime now) const {
    auto it = entries_.find(from);
    if (it == entries_.end()) return 0;
    if (now - it->second.last_note > kMisbehaviorWindow) return 0;
    return it->second.score;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Live dynamic-state bytes (the §14 protocol-state budget).
  [[nodiscard]] std::size_t state_bytes() const {
    return mem::hash_map_bytes(entries_);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  struct Entry {
    int score = 0;
    SimTime last_note = 0;
    /// Token bucket, scaled: one admission costs kSecond units, refill
    /// is elapsed-microseconds * kRateLimitPerSec units.
    std::int64_t tokens = 0;
    SimTime last_refill = 0;
    SimTime last_touch = 0;
  };

  Entry* entry_for(const net::Endpoint& from, SimTime now) {
    auto it = entries_.find(from);
    if (it != entries_.end()) return &it->second;
    if (entries_.size() >= kLedgerMaxEntries) {
      // Deterministic eviction: the longest-untouched entry goes.  A
      // scan is fine — eviction only happens under endpoint churn past
      // kLedgerMaxEntries, never on the steady-state path.
      auto victim = entries_.begin();
      for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
        if (cand->second.last_touch < victim->second.last_touch ||
            (cand->second.last_touch == victim->second.last_touch &&
             net::EndpointHash{}(cand->first) <
                 net::EndpointHash{}(victim->first))) {
          victim = cand;
        }
      }
      if (victim->second.last_touch >= now) return nullptr;
      entries_.erase(victim);
    }
    Entry fresh;
    fresh.tokens = std::int64_t{kRateLimitBurst} * kSecond;
    fresh.last_refill = now;
    fresh.last_touch = now;
    return &entries_.emplace(from, fresh).first->second;
  }

  std::unordered_map<net::Endpoint, Entry, net::EndpointHash> entries_;
};

}  // namespace wow::p2p
