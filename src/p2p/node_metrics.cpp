// Node observability: the DisconnectCause names, the metric
// registration, and the bytes/node accounting.  Split from node.cpp so
// the composition root stays protocol wiring only.
#include "p2p/node.h"

#include "p2p/bootstrap_overlord.h"
#include "p2p/census_agent.h"
#include "p2p/ctm_overlord.h"
#include "p2p/keepalive.h"
#include "p2p/relay_agent.h"
#include "p2p/shortcut_overlord.h"

namespace wow::p2p {

const char* to_string(DisconnectCause cause) {
  switch (cause) {
    case DisconnectCause::kKeepaliveTimeout: return "keepalive_timeout";
    case DisconnectCause::kCloseFrame: return "close_frame";
    case DisconnectCause::kLinkError: return "link_error";
    case DisconnectCause::kRelayDown: return "relay_down";
    case DisconnectCause::kTrimmed: return "trimmed";
    case DisconnectCause::kMisbehavior: return "misbehavior";
    case DisconnectCause::kCount: break;
  }
  return "unknown";
}

void Node::register_metrics() {
  // The flyweight profile opts out: the per-node registry entries
  // (kind, name, labels, std::function: about 190 B each, 52 per node)
  // cost more than the whole protocol stack at megascale.  Fleet-level
  // aggregates still work.
  if (!config_.register_node_metrics) return;
  MetricsRegistry& reg = metrics_;
  MetricLabels labels{trace_node_, "node"};
  auto add = [&](MetricKind kind, std::string_view name,
                 std::function<double()> fn) {
    metric_ids_.push_back(reg.add_callback(kind, name, labels, std::move(fn)));
  };
  // Stats fields are read through callbacks, so the hot paths keep
  // their plain ++stats_ increments.
  add_counters(reg, "node_", labels, [this] { return &stats_; },
               metric_ids_);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(DisconnectCause::kCount); ++i) {
    add(MetricKind::kCounter,
        std::string("node_lost_") + to_string(static_cast<DisconnectCause>(i)),
        [this, i] { return double(stats_.lost_by_cause[i]); });
  }
  add(MetricKind::kGauge, "node_connections",
      [this] { return double(table_.size()); });
  add(MetricKind::kGauge, "node_routable",
      [this] { return routable() ? 1.0 : 0.0; });
  add(MetricKind::kGauge, "node_peer_cache_size",
      [this] { return double(peer_cache_.size()); });

  // linking_ is rebuilt on every start(); going through the pointer
  // keeps the counters valid across restarts (0 while stopped).
  add_counters(
      reg, "link_", MetricLabels{trace_node_, "linking"},
      [this] { return linking_ ? &linking_->stats() : nullptr; },
      metric_ids_);
}

Node::MemoryFootprint Node::memory_footprint() const {
  MemoryFootprint f;
  // Strings are counted by capacity (what the allocator holds), but
  // only when they actually spilled past the SSO buffer already counted
  // inside sizeof(Node).
  auto string_heap = [](const std::string& s) -> std::size_t {
    return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
  };
  f.self = sizeof(Node) + string_heap(trace_node_) +
           string_heap(log_component_) +
           metric_ids_.capacity() * sizeof(MetricId) +
           config_.bootstrap.capacity() * sizeof(transport::Uri);
  f.table = table_.memory_bytes();
  f.keepalive = keepalive_->memory_bytes();
  f.ctm = ctm_->memory_bytes();
  f.relay = relays_->memory_bytes();
  // The bootstrap figure covers the discovery service plus the peer
  // cache and census agent it feeds (all part of the join plane).
  f.bootstrap = bootstrap_->memory_bytes() + peer_cache_.memory_bytes() +
                census_->memory_bytes();
  f.shortcut = shortcuts_->memory_bytes();
  // Rebuilt each start(); null while stopped.
  f.linking = linking_ ? linking_->memory_bytes() : 0;
  f.flight = flight_.memory_bytes();
  f.protocol_state = table_.state_bytes() + keepalive_->state_bytes() +
                     ctm_->state_bytes() + relays_->state_bytes() +
                     bootstrap_->state_bytes() + peer_cache_.state_bytes() +
                     census_->state_bytes() + shortcuts_->state_bytes() +
                     (linking_ ? linking_->state_bytes() : 0) +
                     flight_.state_bytes() + ledger_.state_bytes();
  return f;
}

}  // namespace wow::p2p
