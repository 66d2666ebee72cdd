#include "p2p/bootstrap_overlord.h"

#include <algorithm>

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

bool BootstrapOverlord::covered(const transport::Uri& uri) const {
  bool hit = false;
  table_.for_each([&](const Connection& c) {
    if (!c.is_relay() && c.remote == uri.endpoint) hit = true;
  });
  return hit;
}

bool BootstrapOverlord::probe_endpoint(bool reprobe) {
  const auto& pool = config_.bootstrap;
  if (pool.empty()) return false;
  sync_health();
  const SimTime now = timers_.now();
  for (std::size_t step = 0; step < pool.size(); ++step) {
    const std::size_t i = (rotation_ + step) % pool.size();
    const transport::Uri& uri = pool[i];
    if (uri.endpoint == edges_.local_uri().endpoint) continue;  // self
    if (now < health_[i].retry_after) continue;  // backed off
    if (reprobe && covered(uri)) continue;
    rotation_ = i + 1;
    pending_probe_ = static_cast<std::int32_t>(i);
    ++stats_.bootstrap_probes;
    if (hooks_.record_flight) {
      hooks_.record_flight(FlightKind::kBootstrapProbe, Address{},
                           static_cast<std::int32_t>(i),
                           health_[i].failures);
    }
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(now, "node", trace_node_,
                    reprobe ? "bootstrap.reprobe" : "bootstrap.probe",
                    {{"uri", uri.to_string()}});
    }
    hooks_.link_start(Address{}, ConnectionType::kLeaf, {uri});
    return true;
  }
  return false;
}

void BootstrapOverlord::maintain_leaf() {
  if (!table_.empty()) return;
  cache_.evict_stale(timers_.now());
  if (cache_attempt_ != Address{}) {
    if (hooks_.link_attempting(cache_attempt_)) return;  // still in flight
    cache_attempt_ = Address{};
  }
  if (hooks_.link_attempting(Address{})) return;  // endpoint probe in flight
  // Cached peer first: a warm restart rejoins through a recently-live
  // peer and keeps the whole flash crowd off the well-known endpoints.
  if (const PeerCache::Entry* e = cache_.freshest()) {
    cache_attempt_ = e->addr;
    ++stats_.bootstrap_probes;
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(timers_.now(), "node", trace_node_,
                    "bootstrap.cache_probe", {{"peer", e->addr.brief()}});
    }
    hooks_.link_start(e->addr, ConnectionType::kLeaf, e->uris);
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
  if (table_.empty() || config_.bootstrap.empty()) return;
  if (timers_.now() - last_bootstrap_probe_ <
      config_.bootstrap_reprobe_interval) {
    return;
  }
  if (hooks_.link_attempting(Address{})) return;
  last_bootstrap_probe_ = timers_.now();
  probe_endpoint(/*reprobe=*/true);
}

void BootstrapOverlord::refresh_cache() {
  if (cache_.capacity() == 0) return;
  const SimTime now = timers_.now();
  if (now - last_cache_refresh_ < kCacheRefreshInterval) return;
  last_cache_refresh_ = now;
  cache_.evict_stale(now);
  table_.for_each([&](const Connection& c) {
    if (c.is_relay() || c.uris.empty()) return;
    cache_.note(c.addr, c.uris, now);
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
  h.retry_after =
      timers_.now() + backoff + rng_.jitter(kBackoffBase);
  ++stats_.bootstrap_endpoint_failures;
  if (hooks_.record_flight) {
    hooks_.record_flight(
        FlightKind::kEndpointDown, Address{}, pending_probe_,
        static_cast<std::int32_t>(to_seconds(backoff)));
  }
  if (tracer_.enabled(TraceClass::kLifecycle)) {
    tracer_.event(timers_.now(), "node", trace_node_,
                  "bootstrap.endpoint_down",
                  {{"endpoint", std::to_string(pending_probe_)},
                   {"failures", std::to_string(h.failures)}});
  }
  pending_probe_ = -1;
}

void BootstrapOverlord::note_cache_failed(const Address& peer) {
  if (peer == cache_attempt_) cache_attempt_ = Address{};
  cache_.remove(peer);
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
    if (hooks_.drop_leaf && last_own_leaf_ != Address{} &&
        last_own_leaf_ != peer) {
      const Connection* old = table_.find(last_own_leaf_);
      if (old != nullptr && !old->is_relay() &&
          old->type == ConnectionType::kLeaf) {
        hooks_.drop_leaf(last_own_leaf_);
      }
    }
    last_own_leaf_ = peer;
  }
  if (peer == cache_attempt_ && peer != Address{}) {
    ++stats_.bootstrap_cache_rejoins;
    if (hooks_.record_flight) {
      hooks_.record_flight(FlightKind::kCacheRejoin, peer, 0, 0);
    }
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(timers_.now(), "node", trace_node_,
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
