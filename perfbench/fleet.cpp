#include "fleet.h"

#include <algorithm>

#include "net/sim_edge.h"
#include "transport/uri.h"

namespace wowbench {

using wow::SimDuration;
using wow::SimTime;
using wow::p2p::Node;

/// One-way latency between any two hosts (lossless, no jitter).
constexpr SimDuration kWanLatency = 30 * wow::kMillisecond;

NodeCounters NodeCounters::operator-(const NodeCounters& b) const {
  NodeCounters d;
  d.forwarded = forwarded - b.forwarded;
  d.delivered = delivered - b.delivered;
  d.delivered_hops = delivered_hops - b.delivered_hops;
  d.dropped = dropped - b.dropped;
  d.parse_rejects = parse_rejects - b.parse_rejects;
  d.ctm_retries = ctm_retries - b.ctm_retries;
  d.ctm_timeouts = ctm_timeouts - b.ctm_timeouts;
  d.connections_lost = connections_lost - b.connections_lost;
  d.link_attempts = link_attempts - b.link_attempts;
  d.links_established = links_established - b.links_established;
  d.ipop_sent = ipop_sent - b.ipop_sent;
  d.ipop_received = ipop_received - b.ipop_received;
  d.ipop_dropped = ipop_dropped - b.ipop_dropped;
  return d;
}

SimPhase SimPhase::operator-(const SimPhase& start) const {
  SimPhase d;
  d.events = events - start.events;
  d.datagrams = datagrams - start.datagrams;
  d.drops = drops - start.drops;
  d.counters = counters - start.counters;
  d.wall_s = wall_s - start.wall_s;
  return d;
}

NodeCounters sum_counters(const std::vector<Node*>& nodes,
                          const std::vector<wow::ipop::IpopNode*>& ipops) {
  NodeCounters c;
  for (const Node* n : nodes) {
    const wow::p2p::NodeStats& s = n->stats();
    c.forwarded += s.data_forwarded;
    c.delivered += s.data_delivered;
    c.delivered_hops += s.delivered_hops;
    c.dropped += s.dropped_no_connection + s.dropped_no_route + s.dropped_ttl;
    c.parse_rejects += s.parse_rejects;
    c.ctm_retries += s.ctm_retries;
    c.ctm_timeouts += s.ctm_timeouts;
    c.connections_lost += s.connections_lost;
    if (n->running()) {
      c.link_attempts += n->link_stats().attempts_started;
      c.links_established += n->link_stats().established_active;
    }
  }
  for (const wow::ipop::IpopNode* ip : ipops) {
    const auto& s = ip->stats();
    c.ipop_sent += s.sent;
    c.ipop_received += s.received;
    c.ipop_dropped += s.dropped_not_ours + s.dropped_no_handler +
                      s.parse_rejects;
  }
  return c;
}

SimFleet::SimFleet(const FleetConfig& config, Ledger* ledger)
    : sim(config.seed), network(sim), config_(config) {
  if (config_.batched) network.enable_batched_delivery(wow::kMillisecond);
  wow::net::SiteId site = network.add_site("wan");
  network.set_same_site(wow::net::LinkModel{kWanLatency, 0, 0.0});
  if (ledger != nullptr) {
    timers_ = std::make_unique<TracedTimers>(sim, *ledger, Span::kP2pTimer);
  }

  constexpr std::uint16_t kPort = 17000;
  auto n = static_cast<std::size_t>(config_.nodes);
  std::vector<wow::net::Host*> hosts;
  hosts.reserve(n);
  nodes.reserve(n);
  wow::net::Host::Config host_config;
  for (std::size_t i = 0; i < n; ++i) {
    auto u = static_cast<std::uint32_t>(i);
    auto ip = wow::net::Ipv4Addr(129, static_cast<std::uint8_t>(u >> 16),
                                 static_cast<std::uint8_t>(u >> 8),
                                 static_cast<std::uint8_t>(u));
    wow::net::Host& host = network.add_host(ip, wow::net::Network::kInternet,
                                            site, host_config);
    hosts.push_back(&host);

    wow::p2p::NodeConfig cfg = config_.flyweight
                                   ? wow::p2p::NodeConfig::flyweight()
                                   : wow::p2p::NodeConfig{};
    cfg.port = kPort;
    cfg.shortcut.enabled = false;
    std::size_t k = std::min(static_cast<std::size_t>(kWellKnownEndpoints), i);
    for (std::size_t j = 0; j < k; ++j) {
      cfg.bootstrap.push_back(wow::transport::Uri{
          wow::transport::TransportKind::kUdp,
          wow::net::Endpoint{hosts[j]->ip(), kPort}});
    }

    wow::p2p::NodeDeps deps;
    TracedEdges* traced = nullptr;
    if (ledger == nullptr) {
      deps = wow::p2p::NodeDeps::sim(sim, network, host);
    } else {
      deps.timers = timers_.get();
      deps.rng = &sim.rng();
      deps.logger = &sim.logger();
      deps.metrics = &sim.metrics();
      deps.tracer = &sim.trace();
      auto edges = std::make_unique<TracedEdges>(
          std::make_unique<wow::net::SimEdgeFactory>(network, host), *ledger,
          Span::kNetSend);
      traced = edges.get();
      deps.edges = std::move(edges);
    }

    if (config_.ipop) {
      wow::ipop::IpopNode::Config ic;
      std::uint32_t v = u + 1;  // 10.0.0.1 upwards
      ic.vip = wow::net::Ipv4Addr(10, static_cast<std::uint8_t>(v >> 16),
                                  static_cast<std::uint8_t>(v >> 8),
                                  static_cast<std::uint8_t>(v));
      ic.p2p = cfg;
      ipop_owned_.push_back(
          std::make_unique<wow::ipop::IpopNode>(std::move(deps), ic));
      ipops.push_back(ipop_owned_.back().get());
      nodes.push_back(&ipop_owned_.back()->p2p());
    } else {
      node_owned_.push_back(std::make_unique<Node>(std::move(deps), cfg));
      nodes.push_back(node_owned_.back().get());
    }
    if (traced != nullptr) traced->attach(*nodes.back());
  }
}

std::optional<SimTime> SimFleet::start_and_converge(
    SimDuration check_period, SimDuration horizon,
    const std::function<void()>& between_chunks) {
  start_times_.assign(nodes.size(), SimTime{-1});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SimTime due = static_cast<SimTime>(i) * config_.join_stagger;
    if (sim.now() < due) sim.run_until(due);
    start_times_[i] = sim.now();
    nodes[i]->start();
  }
  ring_order_.clear();  // addresses are fixed once every node started
  SimTime deadline = sim.now() + horizon;
  while (true) {
    sim.run_for(check_period);
    if (between_chunks) between_chunks();
    if (converged()) return converged_at_ = sim.now();
    if (sim.now() >= deadline) return std::nullopt;
  }
}

SimPhase SimFleet::snapshot() const {
  SimPhase p;
  p.events = sim.executed_events();
  p.datagrams = network.stats().sent;
  for (std::uint64_t d : network.stats().dropped) p.drops += d;
  p.counters = counters();
  return p;
}

const std::vector<Node*>& SimFleet::ring_order() const {
  if (ring_order_.size() != nodes.size()) {
    ring_order_ = nodes;
    std::sort(ring_order_.begin(), ring_order_.end(),
              [](const Node* a, const Node* b) {
                return a->address() < b->address();
              });
  }
  return ring_order_;
}

bool SimFleet::converged() const {
  for (const Node* n : nodes) {
    if (!n->running() || !n->routable()) return false;
  }
  // Both near pointers close the ring: the successor walk alone can
  // close while a predecessor is still stale, which the Oracle flags.
  const auto& order = ring_order();
  std::size_t n = order.size();
  for (std::size_t i = 0; i < n; ++i) {
    const wow::p2p::Connection* r = order[i]->connections().right_neighbor();
    const wow::p2p::Connection* l = order[i]->connections().left_neighbor();
    if (r == nullptr || l == nullptr ||
        r->addr != order[(i + 1) % n]->address() ||
        l->addr != order[(i + n - 1) % n]->address()) {
      return false;
    }
  }
  return true;
}

std::size_t SimFleet::ring_census() const {
  return wow::p2p::Oracle::ring_census(nodes);
}

wow::p2p::OracleReport SimFleet::oracle(std::size_t route_pairs) const {
  wow::p2p::Oracle::Config cfg;
  cfg.seed = config_.seed;
  cfg.max_route_pairs = route_pairs;
  return wow::p2p::Oracle::check(nodes, sim.now(), cfg);
}

std::vector<double> SimFleet::join_latencies_s() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < nodes.size() && i < start_times_.size(); ++i) {
    std::optional<SimTime> since = nodes[i]->routable_since();
    if (since && *since >= start_times_[i]) {
      out.push_back(wow::to_seconds(*since - start_times_[i]));
    }
  }
  return out;
}

void SimFleet::observe(wow::Rng& rng, int calls) {
  std::int64_t start = now_ns();
  auto last = static_cast<std::int64_t>(nodes.size()) - 1;
  for (int c = 0; c < calls; ++c) {
    const Node* n = nodes[static_cast<std::size_t>(rng.uniform(0, last))];
    std::array<std::uint32_t, wow::RingId::kLimbs> limbs{};
    for (auto& limb : limbs) {
      limb = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffLL));
    }
    wow::p2p::Address target{limbs};
    std::int64_t t0 = now_ns();
    [[maybe_unused]] const auto* next = n->connections().closest_to(target);
    observed_.closest_ns += now_ns() - t0;
    ++observed_.closest_calls;
  }
  for (const Node* n : nodes) {
    auto size = static_cast<double>(n->connections().size());
    observed_.table_max = std::max(observed_.table_max, size);
    observed_.table_sum += size;
    ++observed_.table_samples;
  }
  observed_.pending_peak = std::max(
      observed_.pending_peak, static_cast<double>(sim.pending_events()));
  observed_.own_ns += now_ns() - start;
}

void report_sim_phase(Report& report, const SimFleet& fleet,
                      const Ledger& ledger, const SimPhase& plain,
                      const SimPhase& traced, std::uint64_t seed) {
  report.check(traced.events == plain.events,
               "traced run executed a different number of events");
  report.line(fmt("  twin check: %llu events untraced, %llu traced",
                  static_cast<unsigned long long>(plain.events),
                  static_cast<unsigned long long>(traced.events)));
  const SimFleet::Observed& seen = fleet.observed();
  auto events = static_cast<double>(traced.events);
  auto datagrams = static_cast<double>(traced.datagrams);
  double wall_s = traced.wall_s - static_cast<double>(seen.own_ns) / 1e9;
  report.set("sim.events", events);
  report.set("sim.events_per_s", events / plain.wall_s);
  report.set("sim.self_ns_per_event",
             (wall_s * 1e9 - static_cast<double>(ledger.top_level_ns())) /
                 events);
  report.set("sim.pending_peak", seen.pending_peak);
  report.set("net.datagrams", datagrams);
  report.set("net.datagrams_per_s", datagrams / plain.wall_s);
  report.set("net.drops", static_cast<double>(traced.drops));
  report_spans(report, ledger);
  report_codec(report, ledger, seed);
  report_counters(report, traced.counters);
  report.set("p2p.closest_to_ns",
             seen.closest_calls == 0
                 ? 0.0
                 : static_cast<double>(seen.closest_ns) /
                       static_cast<double>(seen.closest_calls));
  report.set("p2p.table_size_max", seen.table_max);
  report.set("p2p.table_size_mean",
             seen.table_samples == 0
                 ? 0.0
                 : seen.table_sum / static_cast<double>(seen.table_samples));
  report.set("p2p.converge_sim_s",
             fleet.converged_at() ? wow::to_seconds(*fleet.converged_at())
                                  : 0.0);
  report.set("p2p.join_p99_sim_s", percentile(fleet.join_latencies_s(), 99));
  report.set("trace.overhead", wall_s / plain.wall_s);
}

void report_vtcp(Report& report, const wow::vtcp::TcpSocket::Stats& tcp) {
  auto segments = static_cast<double>(tcp.segments_sent);
  auto retransmits = static_cast<double>(tcp.retransmits);
  report.set("vtcp.segments_sent", segments);
  report.set("vtcp.retransmits", retransmits);
  report.set("vtcp.retransmit_ratio",
             segments == 0 ? 0.0 : retransmits / segments);
  report.set("vtcp.timeouts", static_cast<double>(tcp.timeouts));
}

void report_counters(Report& report, const NodeCounters& d) {
  auto v = [](std::uint64_t x) { return static_cast<double>(x); };
  report.set("p2p.forwarded", v(d.forwarded));
  report.set("p2p.delivered", v(d.delivered));
  report.set("p2p.dropped", v(d.dropped));
  report.set("p2p.parse_rejects", v(d.parse_rejects));
  report.set("p2p.ctm_retries", v(d.ctm_retries));
  report.set("p2p.ctm_timeouts", v(d.ctm_timeouts));
  report.set("p2p.connections_lost", v(d.connections_lost));
  report.set("p2p.hops_per_delivery",
             d.delivered == 0 ? 0.0 : v(d.delivered_hops) / v(d.delivered));
  report.set("p2p.link_success_ratio",
             d.link_attempts == 0
                 ? 0.0
                 : v(d.links_established) / v(d.link_attempts));
  report.set("ipop.sent", v(d.ipop_sent));
  report.set("ipop.received", v(d.ipop_received));
  report.set("ipop.dropped", v(d.ipop_dropped));
}

void report_codec(Report& report, const Ledger& ledger, std::uint64_t seed) {
  struct Class {
    const std::optional<Bytes>& captured;
    std::size_t nominal;
    const char* parse_name;
    const char* wire_name;
  };
  for (const Class& c :
       {Class{ledger.small_frame(), 64, "p2p.parse_ns_64", "p2p.wire_ns_64"},
        Class{ledger.large_frame(), 1400, "p2p.parse_ns_1400",
              "p2p.wire_ns_1400"}}) {
    Bytes frame =
        c.captured ? *c.captured : synth_data_frame(c.nominal, seed + c.nominal);
    CodecCost cost = time_codec(frame);
    report.check(cost.parse_ns > 0, "codec timing: frame did not parse");
    report.set(c.parse_name, cost.parse_ns);
    report.set(c.wire_name, cost.wire_ns);
    report.line(fmt("codec %-5zu %s frame of %zu B: parse %.1f ns, wire %.1f ns",
                    c.nominal, c.captured ? "captured" : "synthesized",
                    frame.size(), cost.parse_ns, cost.wire_ns));
  }
}

void report_spans(Report& report, const Ledger& ledger) {
  report.set("net.send_ns", ledger.self_ns_per(Span::kNetSend));
  report.set("transport.send_ns", ledger.self_ns_per(Span::kTransportSend));
  report.set("p2p.forward_ns", ledger.self_ns_per(Span::kForward));
  report.set("p2p.deliver_ns", ledger.self_ns_per(Span::kDeliver));
  report.set("p2p.control_ns", ledger.self_ns_per(Span::kControl));
  report.set("p2p.timer_ns", ledger.self_ns_per(Span::kP2pTimer));
  report.set("p2p.timer_fires",
             static_cast<double>(ledger[Span::kP2pTimer].count));
  report.set("ipop.ping_ns", ledger.self_ns_per(Span::kIpopPing));
  report.set("vtcp.send_ns", ledger.self_ns_per(Span::kVtcpSend));

  std::int64_t total = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
    total += ledger[static_cast<Span>(i)].self_ns;
  }
  report.line("ledger (self time inside spans):");
  for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
    auto span = static_cast<Span>(i);
    const Ledger::Totals& t = ledger[span];
    if (t.count == 0) continue;
    report.line(fmt("  %-16s %10llu spans %10.1f ms %5.1f%% %9.1f ns/span",
                    span_name(span), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.self_ns) / 1e6,
                    total == 0 ? 0.0
                               : 100.0 * static_cast<double>(t.self_ns) /
                                     static_cast<double>(total),
                    ledger.self_ns_per(span)));
  }
}

}  // namespace wowbench
