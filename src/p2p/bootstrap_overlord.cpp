#include "p2p/bootstrap_overlord.h"

#include <algorithm>

#include "common/rng.h"
#include "common/trace.h"
#include "p2p/node.h"

namespace wow::p2p {

namespace {

/// Per-endpoint bootstrap backoff (the flap-quarantine shape): after
/// each failed probe of an endpoint, that endpoint is skipped for
/// base * 2^(failures-1), capped at max, plus up to one base of jitter.
/// The rotation moves on to the next endpoint meanwhile.
constexpr SimDuration kBackoffBase = 15 * kSecond;
constexpr SimDuration kBackoffMax = 2 * kMinute;
/// How often the peer cache is refreshed from live connections.
constexpr SimDuration kCacheRefreshInterval = 30 * kSecond;

/// The backoff after `failures` failed probes.  The doubling loop stops
/// at the cap, so the failure count can grow without bound (a
/// permanently dead endpoint) and never overflow.
SimDuration backoff_for(std::int32_t failures) {
  SimDuration d = kBackoffBase;
  for (std::int32_t i = 1; i < failures && d < kBackoffMax; ++i) d *= 2;
  return std::min(d, kBackoffMax);
}

}  // namespace

void BootstrapOverlord::sync_health() {
  if (health_.size() != node_.config_.bootstrap.size()) {
    health_.resize(node_.config_.bootstrap.size());
  }
}

bool BootstrapOverlord::covered(const transport::Uri& uri) const {
  bool hit = false;
  node_.table_.for_each([&](const Connection& c) {
    if (!c.is_relay() && c.remote == uri.endpoint) hit = true;
  });
  return hit;
}

bool BootstrapOverlord::probe_endpoint(bool reprobe) {
  const auto& pool = node_.config_.bootstrap;
  if (pool.empty()) return false;
  sync_health();
  const SimTime now = node_.timers_.now();
  for (std::size_t step = 0; step < pool.size(); ++step) {
    const std::size_t i = (rotation_ + step) % pool.size();
    const transport::Uri& uri = pool[i];
    if (uri.endpoint == node_.edges_->local_uri().endpoint) continue;  // self
    if (now < health_[i].retry_after) continue;  // backed off
    if (reprobe && covered(uri)) continue;
    rotation_ = i + 1;
    pending_probe_ = static_cast<std::int32_t>(i);
    ++node_.stats_.bootstrap_probes;
    node_.flight_.record(now, FlightKind::kBootstrapProbe, {},
                         static_cast<std::int32_t>(i), health_[i].failures);
    if (node_.tracer_.enabled(TraceClass::kLifecycle)) {
      node_.tracer_.event(now, "node", node_.trace_node_,
                          reprobe ? "bootstrap.reprobe" : "bootstrap.probe",
                          {{"uri", uri.to_string()}});
    }
    node_.linking_->start(Address{}, ConnectionType::kLeaf, {uri});
    return true;
  }
  return false;
}

void BootstrapOverlord::maintain_leaf() {
  if (!node_.table_.empty()) return;
  node_.peer_cache_.evict_stale(node_.timers_.now());
  if (cache_attempt_ != Address{}) {
    if (node_.linking_->attempting(cache_attempt_)) return;  // in flight
    cache_attempt_ = Address{};
  }
  if (node_.linking_->attempting(Address{})) return;  // probe in flight
  // Cached peer first: a warm restart rejoins through a recently-live
  // peer and keeps the whole flash crowd off the well-known endpoints.
  if (const PeerCache::Entry* e = node_.peer_cache_.freshest()) {
    cache_attempt_ = e->addr;
    ++node_.stats_.bootstrap_probes;
    if (node_.tracer_.enabled(TraceClass::kLifecycle)) {
      node_.tracer_.event(node_.timers_.now(), "node", node_.trace_node_,
                          "bootstrap.cache_probe",
                          {{"peer", e->addr.brief()}});
    }
    node_.linking_->start(e->addr, ConnectionType::kLeaf, e->uris);
    return;
  }
  probe_endpoint(/*reprobe=*/false);
}

void BootstrapOverlord::maintain_bootstrap() {
  // A fragment that repaired into its own self-consistent ring looks
  // healthy to every overlord, so the only way to rediscover the rest
  // of the overlay is the well-known bootstrap list.  Re-probe each
  // endpoint no direct connection covers (one per interval, rotating):
  // when the probe lands in a different fragment it is the bridge join
  // CTMs merge across, and covering every endpoint individually is
  // what lets two rings that each hold a DIFFERENT endpoint find each
  // other.
  if (node_.table_.empty() || node_.config_.bootstrap.empty()) return;
  if (node_.timers_.now() - last_bootstrap_probe_ <
      node_.config_.bootstrap_reprobe_interval) {
    return;
  }
  if (node_.linking_->attempting(Address{})) return;
  last_bootstrap_probe_ = node_.timers_.now();
  probe_endpoint(/*reprobe=*/true);
}

void BootstrapOverlord::refresh_cache() {
  if (node_.peer_cache_.capacity() == 0) return;
  const SimTime now = node_.timers_.now();
  if (now - last_cache_refresh_ < kCacheRefreshInterval) return;
  last_cache_refresh_ = now;
  node_.peer_cache_.evict_stale(now);
  node_.table_.for_each([&](const Connection& c) {
    if (c.is_relay() || c.uris.empty()) return;
    node_.peer_cache_.note(c.addr, c.uris, now);
  });
}

void BootstrapOverlord::note_probe_failed() {
  if (pending_probe_ < 0 ||
      static_cast<std::size_t>(pending_probe_) >= health_.size()) {
    pending_probe_ = -1;
    return;
  }
  EndpointHealth& h = health_[static_cast<std::size_t>(pending_probe_)];
  ++h.failures;
  const SimDuration backoff = backoff_for(h.failures);
  // Jitter of up to one base interval de-synchronizes a flash crowd
  // that watched the same endpoint die at the same instant.
  const SimTime now = node_.timers_.now();
  h.retry_after = now + backoff + node_.rng_.jitter(kBackoffBase);
  ++node_.stats_.bootstrap_endpoint_failures;
  node_.flight_.record(now, FlightKind::kEndpointDown, {}, pending_probe_,
                       static_cast<std::int32_t>(to_seconds(backoff)));
  if (node_.tracer_.enabled(TraceClass::kLifecycle)) {
    node_.tracer_.event(now, "node", node_.trace_node_,
                        "bootstrap.endpoint_down",
                        {{"endpoint", std::to_string(pending_probe_)},
                         {"failures", std::to_string(h.failures)}});
  }
  pending_probe_ = -1;
}

void BootstrapOverlord::note_cache_failed(const Address& peer) {
  if (peer == cache_attempt_) cache_attempt_ = Address{};
  node_.peer_cache_.remove(peer);
}

void BootstrapOverlord::note_leaf_established(const Address& peer) {
  // Only a leaf WE initiated (a zero-keyed endpoint probe or a cached
  // peer rejoin) is ours to rotate.  Passive leaf accepts belong to the
  // remote joiner — a bootstrap node must never shed them, or every new
  // arrival would evict an earlier joiner's lifeline.
  const bool own = pending_probe_ >= 0 ||
                   (peer == cache_attempt_ && peer != Address{});
  if (own) {
    // Leaf rotation: one own bootstrap leaf at a time.  A fresh leaf
    // replaces the previous one instead of accumulating — over
    // successive re-probe intervals the single leaf cycles across every
    // endpoint, so the merge safety net covers the whole well-known
    // list at a constant one-connection cost.
    if (last_own_leaf_ != Address{} && last_own_leaf_ != peer) {
      const Connection* old = node_.table_.find(last_own_leaf_);
      if (old != nullptr && !old->is_relay() &&
          old->type == ConnectionType::kLeaf) {
        node_.drop_connection(last_own_leaf_, /*send_close=*/true,
                              DisconnectCause::kTrimmed);
      }
    }
    last_own_leaf_ = peer;
  }
  if (peer == cache_attempt_ && peer != Address{}) {
    const SimTime now = node_.timers_.now();
    ++node_.stats_.bootstrap_cache_rejoins;
    node_.flight_.record(now, FlightKind::kCacheRejoin, peer.brief());
    if (node_.tracer_.enabled(TraceClass::kLifecycle)) {
      node_.tracer_.event(now, "node", node_.trace_node_,
                          "bootstrap.cache_rejoin", {{"peer", peer.brief()}});
    }
    cache_attempt_ = Address{};
    return;
  }
  if (pending_probe_ >= 0 &&
      static_cast<std::size_t>(pending_probe_) < health_.size()) {
    health_[static_cast<std::size_t>(pending_probe_)] = EndpointHealth{};
  }
  pending_probe_ = -1;
}

}  // namespace wow::p2p
