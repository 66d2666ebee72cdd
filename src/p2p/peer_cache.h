#pragma once

#include <cstddef>
#include <vector>

#include "common/time.h"
#include "p2p/packet.h"
#include "transport/uri.h"

namespace wow::p2p {

/// Peer-cache entries not refreshed within the TTL are evicted.
inline constexpr SimDuration kPeerCacheTtl = 10 * kMinute;
/// Unverified peer-cache entries accepted per gossip source: a single
/// byzantine responder can plant at most this many phantoms in the
/// cache, and verified (live-connection) entries always outrank them.
inline constexpr std::size_t kGossipPerSourceCap = 2;

/// Bounded most-recently-seen peer store — the in-memory analog of the
/// on-disk peer cache of Wolinsky et al.'s bootstrap work.  Refreshed
/// from live connections and from gossip samples in CTM join replies;
/// consulted by the bootstrap overlord on rejoin-after-restart so a
/// warm node re-enters the overlay through a recently-live peer instead
/// of piling onto the well-known bootstrap endpoints.
///
/// Owned by the Node OBJECT, not by its running incarnation: stop()
/// clears the connection table but leaves the cache warm, exactly like
/// a cache file surviving a process restart.  Entries are fixed-size
/// (inline UriList), the store is a flat vector bounded by `capacity`,
/// and eviction is strict LRU by last_seen with deterministic
/// tie-breaking — the cache is part of the deterministic protocol
/// state, never a source of nondeterminism.
class PeerCache {
 public:
  struct Entry {
    Address addr;
    transport::UriList uris;
    SimTime last_seen = 0;
    /// Poison resistance (DESIGN §16).  `verified` marks first-hand
    /// evidence — the entry was refreshed from a live connection we
    /// held.  Unverified entries carry the gossip `source` (the CTM
    /// responder that offered the sample) so a byzantine responder's
    /// plantings are capped per source and evicted first.
    bool verified = true;
    Address source;
  };

  explicit PeerCache(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity_);
  }

  /// Insert or refresh `addr`.  A full cache evicts its least recently
  /// seen UNVERIFIED entry if one exists (hearsay dies before
  /// first-hand evidence), else its least recently seen entry overall.
  /// Returns false when the insert was refused by the per-source cap
  /// (the owner counts the poison reject).
  bool note(const Address& addr, const transport::UriList& uris, SimTime now,
            bool verified = true, const Address& source = Address{}) {
    if (capacity_ == 0 || uris.empty()) return true;
    for (Entry& e : entries_) {
      if (e.addr == addr) {
        // Refresh.  Verification only ratchets up: gossip about a peer
        // we have first-hand evidence of must not strip that evidence
        // (nor overwrite the URIs we verified).
        if (!e.verified || verified) e.uris = uris;
        if (verified) {
          e.verified = true;
          e.source = Address{};
        }
        if (now > e.last_seen) e.last_seen = now;
        return true;
      }
    }
    if (!verified) {
      std::size_t from_source = 0;
      for (const Entry& e : entries_) {
        if (!e.verified && e.source == source) ++from_source;
      }
      if (from_source >= kGossipPerSourceCap) return false;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{addr, uris, now, verified, source});
      return true;
    }
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (victim == entries_.size() ||
          (!entries_[i].verified && entries_[victim].verified) ||
          (entries_[i].verified == entries_[victim].verified &&
           entries_[i].last_seen < entries_[victim].last_seen)) {
        victim = i;
      }
    }
    entries_[victim] = Entry{addr, uris, now, verified, source};
    return true;
  }

  /// Drop `addr` (a rejoin attempt through it just failed: it is dead).
  void remove(const Address& addr) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].addr == addr) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  /// Evict entries not refreshed within kPeerCacheTtl.
  void evict_stale(SimTime now) {
    std::erase_if(entries_, [&](const Entry& e) {
      return now - e.last_seen > kPeerCacheTtl;
    });
  }

  /// Freshest entry, verified entries first (liveness-probe-before-
  /// trust: a rejoin prefers a peer we held a live connection to over
  /// one we merely heard about — a poisoned sample cannot capture the
  /// rejoin while any first-hand entry survives).  Ties by highest
  /// last_seen, first on exact ties; nullptr when empty.
  [[nodiscard]] const Entry* freshest() const {
    const Entry* best = nullptr;
    for (const Entry& e : entries_) {
      if (best == nullptr || (e.verified && !best->verified) ||
          (e.verified == best->verified && e.last_seen > best->last_seen)) {
        best = &e;
      }
    }
    return best;
  }

  /// Verified (first-hand) entries currently held (tests).
  [[nodiscard]] std::size_t verified_count() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) {
      if (e.verified) ++n;
    }
    return n;
  }

  [[nodiscard]] bool contains(const Address& addr) const {
    for (const Entry& e : entries_) {
      if (e.addr == addr) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Live protocol-state bytes (the §14 budget metric); 0 when disabled.
  [[nodiscard]] std::size_t state_bytes() const {
    return entries_.size() * sizeof(Entry);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + entries_.capacity() * sizeof(Entry);
  }

 private:
  std::vector<Entry> entries_;
  std::size_t capacity_;
};

}  // namespace wow::p2p
