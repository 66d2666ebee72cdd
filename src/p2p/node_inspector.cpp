#include "p2p/node_inspector.h"

#include <algorithm>

#include "common/stats.h"
#include "common/trace.h"
#include "p2p/keepalive.h"
#include "p2p/node.h"
#include "p2p/shortcut_overlord.h"

namespace wow::p2p {

namespace {

void append_field(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_number(out, v);
}

}  // namespace

NodeSnapshot NodeInspector::inspect(const Node& node, SimTime now) {
  NodeSnapshot s;
  s.brief = node.brief();
  s.running = node.running();
  s.routable = node.running() && node.routable();
  if (auto since = node.routable_since()) {
    s.routable_since_s = to_seconds(*since);
  }
  const ConnectionTable& table = node.connections();
  ConnectionTable::TypeCounts counts = table.count_by_type();
  s.near = static_cast<int>(counts.near);
  s.far = static_cast<int>(counts.far);
  s.leaf = static_cast<int>(counts.leaf);
  s.shortcut = static_cast<int>(counts.shortcut);
  s.relay = static_cast<int>(counts.relay);

  const NodeConfig& cfg = node.node_config();
  double srtt_sum = 0.0;
  int srtt_n = 0;
  table.for_each([&](const Connection& c) {
    if (c.srtt > 0) {
      double ms = to_millis(c.srtt);
      srtt_sum += ms;
      s.srtt_ms_max = std::max(s.srtt_ms_max, ms);
      ++srtt_n;
      s.rto_ms_max = std::max(
          s.rto_ms_max,
          to_millis(c.rto(kPingRtoMin, cfg.ping_interval / 2)));
    }
    double score = node.shortcut_overlord().score_of(c.addr, now);
    s.best_shortcut_score = std::max(s.best_shortcut_score, score);
  });
  if (srtt_n > 0) s.srtt_ms_mean = srtt_sum / srtt_n;

  const NodeStats& st = node.stats();
  s.quarantines = st.quarantines;
  s.ping_states = node.ping_state_count();
  s.pending_ctms = node.pending_ctm_count();
  s.data_delivered = st.data_delivered;
  s.data_forwarded = st.data_forwarded;
  s.drops = st.dropped_no_connection + st.dropped_no_route + st.dropped_ttl;
  s.flight_recorded = node.flight().recorded();
  return s;
}

std::string NodeInspector::to_json(const NodeSnapshot& s, SimTime t) {
  std::string out = "{\"kind\":\"node\",\"t\":";
  append_number(out, to_seconds(t));
  out += ",\"node\":\"";
  out += s.brief;  // ring briefs are plain hex: no JSON escaping needed
  out += "\",\"running\":";
  out += s.running ? "true" : "false";
  out += ",\"routable\":";
  out += s.routable ? "true" : "false";
  append_field(out, "routable_since", s.routable_since_s);
  append_field(out, "near", s.near);
  append_field(out, "far", s.far);
  append_field(out, "leaf", s.leaf);
  append_field(out, "shortcut", s.shortcut);
  append_field(out, "relay", s.relay);
  append_field(out, "srtt_ms_mean", s.srtt_ms_mean);
  append_field(out, "srtt_ms_max", s.srtt_ms_max);
  append_field(out, "rto_ms_max", s.rto_ms_max);
  append_field(out, "quarantines", static_cast<double>(s.quarantines));
  append_field(out, "ping_states", static_cast<double>(s.ping_states));
  append_field(out, "pending_ctms", static_cast<double>(s.pending_ctms));
  append_field(out, "delivered", static_cast<double>(s.data_delivered));
  append_field(out, "forwarded", static_cast<double>(s.data_forwarded));
  append_field(out, "drops", static_cast<double>(s.drops));
  append_field(out, "flight_recorded",
               static_cast<double>(s.flight_recorded));
  append_field(out, "shortcut_best", s.best_shortcut_score);
  out += "}\n";
  return out;
}

void FleetSnapshotter::sample(SimTime now, const std::vector<Node*>& nodes,
                              std::uint64_t executed_events,
                              std::size_t pending_events) {
  FleetSnapshot f;
  f.t = now;
  f.nodes = nodes.size();
  f.executed_events = executed_events;
  f.pending_events = pending_events;
  if (have_prev_ && now > prev_t_) {
    f.events_per_sec =
        static_cast<double>(executed_events - prev_executed_) /
        to_seconds(now - prev_t_);
  }
  prev_executed_ = executed_events;
  prev_t_ = now;
  have_prev_ = true;

  std::vector<double> conns;
  std::vector<double> srtts;
  conns.reserve(nodes.size());
  for (Node* n : nodes) {
    NodeSnapshot s = NodeInspector::inspect(*n, now);
    if (s.running) {
      ++f.running;
      conns.push_back(
          static_cast<double>(s.near + s.far + s.leaf + s.shortcut +
                              s.relay));
      if (s.srtt_ms_max > 0) srtts.push_back(s.srtt_ms_max);
    }
    if (s.routable) ++f.routable;
    f.quarantines += s.quarantines;
    f.relays += static_cast<std::uint64_t>(s.relay);
    f.delivered += s.data_delivered;
    f.drops += s.drops;
    if (per_node_lines_) jsonl_ += NodeInspector::to_json(s, now);
  }
  if (!conns.empty()) {
    f.conns_min = *std::min_element(conns.begin(), conns.end());
    f.conns_max = *std::max_element(conns.begin(), conns.end());
    f.conns_p50 = percentile(conns, 50.0);
    f.conns_p95 = percentile(conns, 95.0);
  }
  if (!srtts.empty()) f.srtt_ms_p95 = percentile(std::move(srtts), 95.0);

  std::string line = "{\"kind\":\"fleet\",\"t\":";
  append_number(line, to_seconds(f.t));
  append_field(line, "nodes", static_cast<double>(f.nodes));
  append_field(line, "running", static_cast<double>(f.running));
  append_field(line, "routable", static_cast<double>(f.routable));
  append_field(line, "executed", static_cast<double>(f.executed_events));
  append_field(line, "pending", static_cast<double>(f.pending_events));
  append_field(line, "eps", f.events_per_sec);
  append_field(line, "conns_min", f.conns_min);
  append_field(line, "conns_p50", f.conns_p50);
  append_field(line, "conns_p95", f.conns_p95);
  append_field(line, "conns_max", f.conns_max);
  append_field(line, "srtt_ms_p95", f.srtt_ms_p95);
  append_field(line, "quarantines", static_cast<double>(f.quarantines));
  append_field(line, "relays", static_cast<double>(f.relays));
  append_field(line, "delivered", static_cast<double>(f.delivered));
  append_field(line, "drops", static_cast<double>(f.drops));
  line += "}\n";
  jsonl_ += line;

  snapshots_.push_back(std::move(f));
}

}  // namespace wow::p2p
