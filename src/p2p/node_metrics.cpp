// Node observability: the DisconnectCause names, the callback-gauge
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
  // The flyweight profile opts out: ~37 gauges/node of registry state
  // (names, labels, std::function closures) costs more than the whole
  // protocol stack at megascale.  Fleet-level aggregates still work.
  if (!config_.register_node_metrics) return;
  MetricsRegistry& reg = metrics_;
  MetricLabels labels{trace_node_, "node"};
  auto add = [&](const char* name, auto fn) {
    metric_ids_.push_back(reg.add_gauge(name, labels, std::move(fn)));
  };
  // Stats fields are exposed as callback gauges instead of counters so
  // the hot paths keep their plain ++stats_ increments.
  add("node_data_sent", [this] { return double(stats_.data_sent); });
  add("node_data_delivered",
      [this] { return double(stats_.data_delivered); });
  add("node_data_forwarded",
      [this] { return double(stats_.data_forwarded); });
  add("node_dropped_no_connection",
      [this] { return double(stats_.dropped_no_connection); });
  add("node_dropped_no_route",
      [this] { return double(stats_.dropped_no_route); });
  add("node_dropped_ttl", [this] { return double(stats_.dropped_ttl); });
  add("node_ctm_sent", [this] { return double(stats_.ctm_sent); });
  add("node_ctm_received", [this] { return double(stats_.ctm_received); });
  add("node_connections_added",
      [this] { return double(stats_.connections_added); });
  add("node_connections_lost",
      [this] { return double(stats_.connections_lost); });
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(DisconnectCause::kCount); ++i) {
    std::string name = std::string("node_lost_") +
                       to_string(static_cast<DisconnectCause>(i));
    metric_ids_.push_back(reg.add_gauge(
        name, labels,
        [this, i] { return double(stats_.lost_by_cause[i]); }));
  }
  add("node_pings_sent", [this] { return double(stats_.pings_sent); });
  add("node_rtt_samples", [this] { return double(stats_.rtt_samples); });
  add("node_ctm_retries", [this] { return double(stats_.ctm_retries); });
  add("node_ctm_timeouts", [this] { return double(stats_.ctm_timeouts); });
  add("node_quarantines", [this] { return double(stats_.quarantines); });
  add("node_relays_established",
      [this] { return double(stats_.relays_established); });
  add("node_relays_upgraded",
      [this] { return double(stats_.relays_upgraded); });
  add("node_relay_forwarded",
      [this] { return double(stats_.relay_forwarded); });
  add("node_delivered_hops",
      [this] { return double(stats_.delivered_hops); });
  add("node_parse_rejects", [this] { return double(stats_.parse_rejects); });
  add("node_connections", [this] { return double(table_.size()); });
  add("node_routable", [this] { return routable() ? 1.0 : 0.0; });
  add("node_bootstrap_probes",
      [this] { return double(stats_.bootstrap_probes); });
  add("node_bootstrap_endpoint_failures",
      [this] { return double(stats_.bootstrap_endpoint_failures); });
  add("node_bootstrap_cache_rejoins",
      [this] { return double(stats_.bootstrap_cache_rejoins); });
  add("node_gossip_peers_learned",
      [this] { return double(stats_.gossip_peers_learned); });
  add("node_peer_cache_size", [this] { return double(peer_cache_.size()); });
  add("node_census_launched",
      [this] { return double(stats_.census_launched); });
  add("node_census_completed",
      [this] { return double(stats_.census_completed); });
  add("node_merges_initiated",
      [this] { return double(stats_.merges_initiated); });
  add("node_merges_completed",
      [this] { return double(stats_.merges_completed); });
  add("node_replays_detected",
      [this] { return double(stats_.replays_detected); });
  add("node_unsolicited_replies",
      [this] { return double(stats_.unsolicited_replies); });
  add("node_forged_replies_rejected",
      [this] { return double(stats_.forged_replies_rejected); });
  add("node_forged_relay_rejects",
      [this] { return double(stats_.forged_relay_rejects); });
  add("node_gossip_poison_rejects",
      [this] { return double(stats_.gossip_poison_rejects); });
  add("node_rate_limit_sheds",
      [this] { return double(stats_.rate_limit_sheds); });
  add("node_misbehavior_quarantines",
      [this] { return double(stats_.misbehavior_quarantines); });

  MetricLabels link_labels{trace_node_, "linking"};
  auto add_link = [&](const char* name, auto fn) {
    metric_ids_.push_back(reg.add_gauge(name, link_labels, std::move(fn)));
  };
  // linking_ is rebuilt on every start(); going through the pointer
  // keeps the gauges valid across restarts (0 while stopped).
  add_link("link_attempts_started", [this] {
    return linking_ ? double(linking_->stats().attempts_started) : 0.0;
  });
  add_link("link_established_active", [this] {
    return linking_ ? double(linking_->stats().established_active) : 0.0;
  });
  add_link("link_established_passive", [this] {
    return linking_ ? double(linking_->stats().established_passive) : 0.0;
  });
  add_link("link_uri_failovers", [this] {
    return linking_ ? double(linking_->stats().uri_failovers) : 0.0;
  });
  add_link("link_race_aborts", [this] {
    return linking_ ? double(linking_->stats().race_aborts) : 0.0;
  });
  add_link("link_failures", [this] {
    return linking_ ? double(linking_->stats().failures) : 0.0;
  });
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
           config_.bootstrap.capacity() * sizeof(transport::Uri) +
           frames_.memory_bytes() + routed_.memory_bytes();
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
