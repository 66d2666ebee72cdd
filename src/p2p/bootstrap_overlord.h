#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "p2p/packet.h"

namespace wow::p2p {

class Node;

/// Leaf/bootstrap overlord: the node's lifeline into the overlay,
/// grown from a single well-known URI into a multi-endpoint discovery
/// service (Wolinsky et al., the P2P bootstrap problem).
///
/// Three duties.  While the table is empty, keep a (re)join attempt
/// going — through the freshest cached peer first, so a restarted node
/// rejoins without touching any well-known endpoint, then through the
/// bootstrap list, rotating endpoints under per-endpoint jittered
/// exponential backoff so one dead endpoint never stalls a flash crowd.
/// Once in the ring, periodically re-probe every UNcovered bootstrap
/// endpoint — the ring-merge safety net: a partition that outlives the
/// keepalive splits the overlay into fragments that each repair into a
/// self-consistent ring, and only a fresh bridge to the well-known list
/// lets join CTMs pull the rings back together.  Between joins, keep
/// the peer cache warm from live connections and gossip samples.
class BootstrapOverlord {
 public:
  /// Reads the node's table, config, stats, edges and peer cache, and
  /// starts leaf links through its linking engine.
  explicit BootstrapOverlord(Node& node) : node_(node) {}

  BootstrapOverlord(const BootstrapOverlord&) = delete;
  BootstrapOverlord& operator=(const BootstrapOverlord&) = delete;

  /// start(): the re-probe clock restarts; in-flight attempt bookkeeping
  /// clears (endpoint health and the peer cache survive — both describe
  /// the world, not this incarnation).
  void on_start() {
    last_bootstrap_probe_ = -(1LL << 60);
    last_cache_refresh_ = -(1LL << 60);
    pending_probe_ = -1;
    cache_attempt_ = Address{};
    last_own_leaf_ = Address{};
  }

  /// Keep a rejoin attempt going while the table is empty: freshest
  /// cached peer first, then the bootstrap rotation.
  void maintain_leaf();
  /// Ring-merge safety net: re-probe bootstrap endpoints that no direct
  /// connection covers, one per interval, rotating.
  void maintain_bootstrap();
  /// Refresh the peer cache from live connections (periodic).
  void refresh_cache();

  /// A zero-keyed leaf probe failed: back off the probed endpoint and
  /// let the rotation move on.
  void note_probe_failed();
  /// A leaf-type attempt toward a real address failed: the cached peer
  /// is dead — evict it.
  void note_cache_failed(const Address& peer);
  /// A leaf link landed: clear attempt bookkeeping, reset the probed
  /// endpoint's backoff, count a cache rejoin when that is what it was.
  void note_leaf_established(const Address& peer);

  /// Live protocol-state bytes.  The per-endpoint health ledger is NOT
  /// live state: it is a fixed function of the configured well-known
  /// list (accounted like that list itself, as object memory),
  /// and the peer cache is owned and counted by the Node.
  [[nodiscard]] std::size_t state_bytes() const { return 0; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + health_.capacity() * sizeof(EndpointHealth);
  }

  /// Endpoint-backoff introspection (tests): when endpoint `i` may be
  /// probed again (0 = immediately).
  [[nodiscard]] SimTime endpoint_retry_after(std::size_t i) const {
    return i < health_.size() ? health_[i].retry_after : 0;
  }

 private:
  struct EndpointHealth {
    std::int32_t failures = 0;
    SimTime retry_after = 0;
  };

  /// Keep the health ledger aligned with the node's bootstrap list
  /// (the list may grow via mutable_config between ticks).
  void sync_health();
  /// True when a direct connection's working endpoint is `uri`.
  [[nodiscard]] bool covered(const transport::Uri& uri) const;
  /// Launch one zero-keyed leaf probe at the next eligible endpoint in
  /// rotation; `reprobe` additionally skips covered endpoints.  Returns
  /// true when a probe was launched.
  bool probe_endpoint(bool reprobe);

  Node& node_;

  SimTime last_bootstrap_probe_ = -(1LL << 60);
  SimTime last_cache_refresh_ = -(1LL << 60);
  /// Per-endpoint failure count + backoff deadline, parallel to the
  /// node's bootstrap list.
  std::vector<EndpointHealth> health_;
  /// Next endpoint the rotation considers.
  std::size_t rotation_ = 0;
  /// Endpoint index a zero-keyed probe is in flight toward (-1 none).
  std::int32_t pending_probe_ = -1;
  /// Cached peer a rejoin attempt is in flight toward (zero = none).
  Address cache_attempt_;
  /// The one bootstrap leaf THIS node initiated and currently keeps
  /// (rotated on the next own-leaf establishment; zero = none).
  Address last_own_leaf_;
};

}  // namespace wow::p2p
