#include "p2p/node.h"

#include <algorithm>

#include "p2p/bootstrap_overlord.h"
#include "p2p/census_agent.h"
#include "p2p/ctm_overlord.h"
#include "p2p/keepalive.h"
#include "p2p/relay_agent.h"
#include "p2p/ring_math.h"
#include "p2p/shortcut_overlord.h"

namespace wow::p2p {

namespace {
// FlightKind::kFrameDrop reason tags (the entry's `b` arg); they mirror
// the trace_packet reason strings without storing a pointer in the ring.
constexpr std::int32_t kDropNoAgent = 1;
constexpr std::int32_t kDropNoRoute = 2;
constexpr std::int32_t kDropTtl = 3;
constexpr std::int32_t kDropWrongConsumer = 4;
constexpr std::int32_t kDropNoConnection = 5;

// Control-vs-data shed priority (DESIGN §16): everything except a
// routed DATA payload is a control frame the token bucket may shed.
// The routed type byte sits at a fixed header offset, so the peek costs
// one compare — no parse.
bool is_control_frame(FrameKind kind, BytesView payload) {
  if (kind != FrameKind::kRouted) return true;
  return payload.size() <= RoutedPacket::kTypeOffset ||
         payload[RoutedPacket::kTypeOffset] !=
             static_cast<std::uint8_t>(RoutedType::kData);
}
}  // namespace

Node::Node(NodeDeps deps, NodeConfig config)
    : timers_(*deps.timers), rng_(*deps.rng), logger_(*deps.logger),
      metrics_(*deps.metrics), tracer_(*deps.tracer),
      edges_(std::move(deps.edges)), config_(std::move(config)),
      table_(config_.address),
      peer_cache_(config_.peer_cache_capacity),
      flight_(config_.flight_capacity) {
  if (config_.address == Address{}) {
    config_.address = rng_.ring_id();
    table_ = ConnectionTable(config_.address);
  }

  trace_node_ = config_.address.brief();
  log_component_ = "node/" + trace_node_;
  register_metrics();
  build_services();
}

Node::~Node() {
  if (running_) stop();
  for (MetricId id : metric_ids_) metrics_.remove(id);
}

// build_services() — the composition root's wiring — lives in
// node_services.cpp.

// --- diagnostics -------------------------------------------------------------

void Node::log(LogLevel level, const std::string& message) const {
  logger_.log(level, timers_.now(), log_component_, message);
}

void Node::trace_packet(const char* event, const RoutedPacket& packet,
                        const char* reason) const {
  // Sampling is keyed by the packet's trace id: every hop of one packet
  // is kept or dropped together, so --path reconstruction in
  // trace_report stays whole under partial sampling.
  if (!tracer_.sample(TraceClass::kPacket, packet.trace_id)) return;
  if (reason != nullptr) {
    tracer_.event(timers_.now(), "node", trace_node_, event,
                  {{"pkt", packet.trace_id},
                   {"src", packet.src.brief()},
                   {"dst", packet.dst.brief()},
                   {"type", int(packet.type)},
                   {"hops", int(packet.hops)},
                   {"ttl", int(packet.ttl)},
                   {"reason", reason}});
  } else {
    tracer_.event(timers_.now(), "node", trace_node_, event,
                  {{"pkt", packet.trace_id},
                   {"src", packet.src.brief()},
                   {"dst", packet.dst.brief()},
                   {"type", int(packet.type)},
                   {"hops", int(packet.hops)},
                   {"ttl", int(packet.ttl)}});
  }
}

// --- life cycle --------------------------------------------------------------

void Node::start() {
  if (running_) return;
  if (!edges_->is_open()) edges_->bind(config_.port);
  edges_->set_receiver(
      [this](const net::Endpoint& from, SharedBytes payload) {
        on_datagram(from, std::move(payload));
      });

  linking_ = std::make_unique<LinkingEngine>(
      timers_, rng_, tracer_, *edges_, config_.address,
      config_.public_uri_first,
      LinkingEngine::Callbacks{
          [this](const Address& peer, const std::vector<transport::Uri>& uris,
                 const net::Endpoint& remote, ConnectionType type) {
            on_link_established(peer, uris, remote, type);
          },
          [this](const Address& peer, ConnectionType type) {
            on_link_failed(peer, type);
          },
          [this](const transport::Uri& uri) {
            if (edges_->learn_public_uri(uri)) refresh_connections();
          },
          // "Has a connection" means a DIRECT one: a relay tunnel must
          // not block the upgrade probes that would replace it.
          [this](const Address& peer) {
            const Connection* c = table_.find(peer);
            return c != nullptr && !c->is_relay();
          },
          [this](const Address& peer) {
            return keepalive_->peer_rto_hint(peer);
          },
          [this](const Address& peer, SimDuration sample) {
            keepalive_->note_rtt(peer, sample);
          },
          [this](const Address& peer) {
            return keepalive_->is_quarantined(peer);
          },
          [this](const net::Endpoint& from) {
            (void)from;
            ++stats_.forged_replies_rejected;
          },
      },
      config_.defenses_enabled);

  running_ = true;
  routable_since_.reset();
  ctm_->on_start();
  bootstrap_->on_start();
  census_->on_start();
  flight_.record(timers_.now(), FlightKind::kStart, {},
                 std::int32_t{config_.port});
  if (tracer_.enabled(TraceClass::kLifecycle)) {
    tracer_.event(timers_.now(), "node", trace_node_, "node.start",
                  {{"port", int(config_.port)},
                   {"bootstrap", int(config_.bootstrap.size())}});
  }

  // Jittered overlord timers so a testbed of nodes doesn't tick in
  // lockstep.
  maintenance_timer_ = timers_.schedule(
      rng_.jitter(config_.maintenance_period), [this] { maintenance(); });
  keepalive_->start(config_.ping_interval / 2 +
                    rng_.jitter(config_.ping_interval / 2));
}

void Node::stop() {
  if (!running_) return;
  running_ = false;
  flight_.record(timers_.now(), FlightKind::kStop, {},
                 static_cast<std::int32_t>(table_.size()));
  if (tracer_.enabled(TraceClass::kLifecycle)) {
    tracer_.event(timers_.now(), "node", trace_node_, "node.stop",
                  {{"connections", int(table_.size())}});
  }
  timers_.cancel(maintenance_timer_);
  keepalive_->stop();
  if (linking_) linking_->abort_all();
  relays_->abort_all();
  table_.clear();
  ctm_->reset();
  census_->reset();
  shortcuts_->reset();
  // peer_cache_ deliberately survives: it models the on-disk bootstrap
  // cache a restarted process reads back (see peer_cache()).
  edges_->close();
}

void Node::stop_gracefully() {
  if (!running_) return;
  table_.for_each([this](const Connection& c) {
    LinkFrame close;
    close.type = LinkType::kClose;
    close.sender = config_.address;
    close.con_type = c.type;
    send_link_frame(c, close);
  });
  stop();
}

void Node::restart() {
  if (running_) stop();
  start();
}

// --- frame plumbing ----------------------------------------------------------

void Node::on_datagram(const net::Endpoint& from, SharedBytes payload) {
  if (!running_) return;
  auto kind = frame_kind(payload.view());
  if (!kind) {
    ++stats_.parse_rejects;
    // Garbage is evidence: a source spraying unparseable bytes (or a
    // path mangling them) accumulates toward quarantine.
    note_misbehavior(from, kMisbehaviorParseReject);
    return;
  }

  // Control-frame admission (DESIGN §16): a per-source token bucket
  // sheds control floods before they reach a parser or handler.  Data
  // frames never shed — an attacker flooding CTMs must not take the
  // data plane down with them.
  if (config_.defenses_enabled && is_control_frame(*kind, payload.view()) &&
      !ledger_.admit_control(from, timers_.now())) {
    ++stats_.rate_limit_sheds;
    flight_.record(timers_.now(), FlightKind::kRateShed);
    return;
  }

  // Any traffic from a connected peer's endpoint counts as liveness
  // (relay tunnels excluded — see credit_liveness).  This runs on every
  // received datagram, so it is a dedicated table scan rather than a
  // std::function-indirected for_each.
  table_.credit_liveness(from, timers_.now());

  switch (*kind) {
    case FrameKind::kRouted:
      // Zero-copy: the packet adopts the frame buffer; forwarding
      // rewrites its mutable header fields in place instead of
      // re-serializing.
      if (auto packet = RoutedPacket::parse(std::move(payload))) {
        route(std::move(*packet), from);
        return;
      }
      break;
    case FrameKind::kLink:
      if (auto frame = LinkFrame::parse(payload.view())) {
        handle_link(*frame, from);
        return;
      }
      break;
    case FrameKind::kRelay:
      if (auto relay = RelayFrame::parse(std::move(payload))) {
        relays_->handle_frame(std::move(*relay), from);
        return;
      }
      break;
    case FrameKind::kCensus:
      if (auto census = CensusFrame::parse(payload.view())) {
        census_->handle(*census);
        return;
      }
      break;
  }
  // The kind's parser refused the frame: count and drop, never crash.
  ++stats_.parse_rejects;
}

void Node::note_misbehavior(const net::Endpoint& from, int weight) {
  if (!config_.defenses_enabled || !running_) return;
  if (!ledger_.note(from, weight, timers_.now())) return;
  // Threshold crossed: quarantine whoever answers from that endpoint
  // and drop the connection.  The endpoint may back no held peer (a
  // drive-by forger) — then the ledger verdict alone is the defense:
  // the rate limiter keeps shedding and the score re-arms.
  Address offender;
  bool held = false;
  table_.for_each([&](const Connection& c) {
    if (!held && !c.is_relay() && c.remote == from) {
      offender = c.addr;
      held = true;
    }
  });
  ++stats_.misbehavior_quarantines;
  std::string brief = held ? offender.brief() : std::string{};
  flight_.record(timers_.now(), FlightKind::kMisbehavior, brief, weight);
  WOW_LOG(logger_, LogLevel::kInfo, timers_.now(), log_component_,
          "misbehavior threshold crossed for " + from.to_string() +
              (held ? " (peer " + offender.brief() + ")" : " (no held peer)"));
  if (held) {
    keepalive_->punish(offender);
    drop_connection(offender, /*send_close=*/false,
                    DisconnectCause::kMisbehavior);
  }
}

void Node::handle_link(const LinkFrame& frame, const net::Endpoint& from) {
  switch (frame.type) {
    case LinkType::kPing: {
      // Keepalives are connection-scoped.  A ping for a connection we
      // no longer hold gets a Close, not a Pong — otherwise a peer
      // whose NAT renumbered keeps believing its (one-way dead) link is
      // alive forever instead of re-establishing it (§V-E).
      if (table_.find(frame.sender) == nullptr) {
        LinkFrame close;
        close.type = LinkType::kClose;
        close.sender = config_.address;
        close.con_type = frame.con_type;
        edges_->send_to(from, close.serialize());
        return;
      }
      LinkFrame pong;
      pong.type = LinkType::kPong;
      pong.sender = config_.address;
      pong.con_type = frame.con_type;
      pong.token = frame.token;
      edges_->send_to(from, pong.serialize());
      return;
    }
    case LinkType::kPong:
      // Liveness was recorded in on_datagram; the probe round-trip
      // feeds the RTT estimator — only when Karn's rule allows it.
      keepalive_->on_pong(frame);
      return;
    case LinkType::kClose:
      drop_connection(frame.sender, /*send_close=*/false,
                      DisconnectCause::kCloseFrame);
      return;
    case LinkType::kRequest:
    case LinkType::kReply:
    case LinkType::kError:
      linking_->handle_frame(frame, from);
      return;
  }
}

void Node::send_link_frame(const Connection& c, const LinkFrame& frame) {
  if (!c.is_relay()) {
    edges_->send_to(c.remote, frame.serialize());
    return;
  }
  edges_->send_to(c.remote, RelayFrame::wrap(config_.address, c.relay,
                                             c.addr, frame.serialize()));
}

// --- routing -----------------------------------------------------------------

void Node::route(RoutedPacket packet, const net::Endpoint& from) {
  if (packet.bounced) {
    // A copy handed across a ring gap is consumed where it lands;
    // re-routing it would only bounce it back.
    deliver_local(packet, from);
    return;
  }
  if (packet.via == config_.address) packet.via = Address{};
  const bool has_via = packet.via != Address{};
  const Address& target = has_via ? packet.via : packet.dst;

  if (!has_via && packet.dst == config_.address) {
    deliver_local(packet, from);
    return;
  }

  const Connection* next = table_.closest_to(target, &packet.src);
  if (next != nullptr) {
    forward_to(*next, std::move(packet));
    return;
  }

  // We are the closest node to the target among our connections.
  if (has_via) {
    // Could not reach the forwarding agent; give up.
    ++stats_.dropped_no_route;
    flight_.record(timers_.now(), FlightKind::kFrameDrop,
                   packet.dst.brief(), int(packet.hops), kDropNoAgent);
    trace_packet("packet.drop", packet, "no_agent");
    return;
  }
  if (packet.mode == DeliveryMode::kNearest) {
    maybe_bounce(packet);
    deliver_local(packet, from);
    return;
  }
  // Exact-delivery packet stranded at the nearest node: the destination
  // is not (or no longer) in the ring.  IPOP semantics: drop.
  ++stats_.dropped_no_route;
  flight_.record(timers_.now(), FlightKind::kFrameDrop, packet.dst.brief(),
                 int(packet.hops), kDropNoRoute);
  trace_packet("packet.drop", packet, "no_route");
}

void Node::forward_to(const Connection& next, RoutedPacket packet) {
  if (packet.ttl == 0) {
    ++stats_.dropped_ttl;
    flight_.record(timers_.now(), FlightKind::kFrameDrop, packet.dst.brief(),
                   int(packet.hops), kDropTtl);
    trace_packet("packet.drop", packet, "ttl");
    return;
  }
  --packet.ttl;
  ++packet.hops;
  if (packet.src != config_.address) ++stats_.data_forwarded;
  if (tracer_.sample(TraceClass::kPacket, packet.trace_id)) {
    tracer_.event(timers_.now(), "node", trace_node_, "packet.forward",
                  {{"pkt", packet.trace_id},
                   {"next", next.addr.brief()},
                   {"dst", packet.dst.brief()},
                   {"hops", int(packet.hops)},
                   {"ttl", int(packet.ttl)}});
  }
  if (next.is_relay()) {
    // The tunnel carries complete inner frames; wrap the routed frame
    // and hand it to the agent.
    edges_->send_to(next.remote,
                    RelayFrame::wrap(config_.address, next.relay,
                                     next.addr, packet.wire().view()));
    return;
  }
  edges_->send_to(next.remote, packet.wire());
}

void Node::maybe_bounce(const RoutedPacket& packet) {
  if (packet.bounced) return;
  // A nearest-delivery packet is consumed by BOTH ring neighbors of the
  // destination position ("delivered to its nearest neighbors", §IV-A).
  // We are one of them; hand one copy across to the node on the far
  // side of the destination — greedy routing alone can never cross the
  // destination's own position.
  RingId cw = config_.address.clockwise_distance(packet.dst);
  bool dst_is_clockwise_of_us = cw < ring_half();
  const Connection* other =
      dst_is_clockwise_of_us ? table_.successor_of(packet.dst, &packet.src)
                             : table_.predecessor_of(packet.dst, &packet.src);
  if (other != nullptr) {
    RoutedPacket copy = packet;
    copy.bounced = true;
    forward_to(*other, std::move(copy));
  }
}

void Node::deliver_local(const RoutedPacket& packet,
                         const net::Endpoint& from) {
  // RoutedPacket::parse refuses any other type byte.
  switch (packet.type) {
    case RoutedType::kData:
      deliver_data(packet);
      return;
    case RoutedType::kCtmRequest:
      ctm_->handle_request(packet, from);
      return;
    case RoutedType::kCtmReply:
      if (packet.dst == config_.address) ctm_->handle_reply(packet, from);
      return;
  }
}

void Node::deliver_data(const RoutedPacket& packet) {
  if (packet.dst != config_.address) {
    ++stats_.dropped_no_route;
    flight_.record(timers_.now(), FlightKind::kFrameDrop, packet.dst.brief(),
                   int(packet.hops), kDropWrongConsumer);
    trace_packet("packet.drop", packet, "wrong_consumer");
    return;
  }
  ++stats_.data_delivered;
  stats_.delivered_hops += packet.hops;
  flight_.record(timers_.now(), FlightKind::kFrameDeliver,
                 packet.src.brief(), int(packet.hops));
  trace_packet("packet.deliver", packet, nullptr);
  shortcuts_->on_traffic(packet.src, timers_.now());
  if (data_handler_) data_handler_(packet.src, packet.payload());
}

// --- data plane --------------------------------------------------------------

void Node::send_data(const Address& dst, BytesView payload) {
  send_data(dst, FrameBuf(RoutedPacket::kHeaderBytes, payload));
}

void Node::send_data(const Address& dst, FrameBuf frame) {
  ++stats_.data_sent;
  if (!running_ || dst == config_.address) return;
  shortcuts_->on_traffic(dst, timers_.now());
  RoutedPacket packet;
  packet.src = config_.address;
  packet.dst = dst;
  packet.ttl = RoutedPacket::kOriginTtl;
  packet.mode = DeliveryMode::kExact;
  packet.type = RoutedType::kData;
  // The id is drawn unconditionally (one counter increment) so that
  // attaching a trace sink never changes wire bytes or event order.
  packet.trace_id = tracer_.next_trace_id();
  packet.set_frame(std::move(frame));
  if (table_.empty()) {
    ++stats_.dropped_no_connection;
    flight_.record(timers_.now(), FlightKind::kFrameDrop, packet.dst.brief(),
                   int(packet.hops), kDropNoConnection);
    trace_packet("packet.drop", packet, "no_connection");
    return;
  }
  trace_packet("packet.send", packet, nullptr);
  route(std::move(packet));
}

void Node::initiate_ctm(const Address& target, ConnectionType type) {
  ctm_->initiate(target, type);
}

// --- connection lifecycle ----------------------------------------------------

void Node::on_link_established(const Address& peer,
                               const std::vector<transport::Uri>& uris,
                               const net::Endpoint& remote,
                               ConnectionType type) {
  // If a relay tunnel to this peer exists, this direct handshake is the
  // upgrade succeeding: the table merge below adopts the direct endpoint
  // and clears the relay agent in place.
  SimTime relay_since = -1;
  if (const Connection* prev = table_.find(peer)) {
    if (prev->is_relay()) relay_since = prev->established;
  }
  if (relays_->attempting(peer)) {
    // The direct path came up while a tunnel handshake was in flight;
    // the tunnel is moot.
    relays_->finish_attempt(peer, "relay.moot");
  }
  Connection c;
  c.addr = peer;
  c.type = type;
  c.remote = remote;
  c.uris = uris;
  c.established = timers_.now();
  c.last_heard = timers_.now();
  // Warm-start the estimator from the peer's durable health record (a
  // re-established connection keeps its RTT history).
  keepalive_->seed_estimator(c);
  bool added = table_.add(std::move(c));
  if (relay_since >= 0) {
    if (Connection* now_direct = table_.find(peer);
        now_direct != nullptr && !now_direct->is_relay()) {
      ++stats_.relays_upgraded;
      flight_.record(timers_.now(), FlightKind::kRelayUpgraded, peer.brief());
      WOW_LOG(logger_, LogLevel::kInfo, timers_.now(), log_component_,
              "relay to " + peer.brief() + " upgraded to direct link");
      if (tracer_.enabled(TraceClass::kLifecycle)) {
        tracer_.event(
            timers_.now(), "node", trace_node_, "relay.upgraded",
            {{"peer", peer.brief()},
             {"relay_lifetime_s", to_seconds(timers_.now() - relay_since)}});
      }
    }
  }
  if (added) {
    ++stats_.connections_added;
    flight_.record(timers_.now(), FlightKind::kConnAdded, peer.brief(),
                   int(type));
    WOW_LOG(logger_, LogLevel::kDebug, timers_.now(), log_component_,
            std::string("+conn ") + to_string(type) + " " + peer.brief() +
                " via " + remote.to_string());
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(timers_.now(), "node", trace_node_, "conn.added",
                    {{"peer", peer.brief()},
                     {"ctype", to_string(type)},
                     {"remote", remote.to_string()}});
    }
    if (type == ConnectionType::kStructuredNear ||
        type == ConnectionType::kLeaf) {
      ctm_->note_neighborhood_change();
    }
    if (type == ConnectionType::kLeaf) {
      bootstrap_->note_leaf_established(peer);
    }
    census_->note_established(peer);
  }
  update_routable();
}

void Node::on_link_failed(const Address& peer, ConnectionType type) {
  if (!running_) return;
  if (peer == Address{}) {
    // A zero-keyed bootstrap probe exhausted its URIs: the endpoint is
    // down.  Back it off and let the rotation move on.
    bootstrap_->note_probe_failed();
    return;
  }
  if (type == ConnectionType::kLeaf) {
    // A leaf attempt toward a known address failed — if it was a
    // cached-peer rejoin, the cache entry is dead.
    bootstrap_->note_cache_failed(peer);
  }
  Connection* existing = table_.find(peer);
  if (existing != nullptr && existing->is_relay()) {
    // An upgrade probe exhausted every URI: the pair is still mutually
    // unreachable.  Keep the tunnel, back off the next probe.
    keepalive_->set_next_direct_probe(
        peer, timers_.now() + kRelayProbeInterval);
    flight_.record(timers_.now(), FlightKind::kRelayProbeFail, peer.brief());
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(timers_.now(), "node", trace_node_,
                    "relay.probe_failed", {{"peer", peer.brief()}});
    }
    return;
  }
  if (existing != nullptr) {
    if (timers_.now() - existing->last_heard <= config_.ping_interval) {
      // The peer linked to us passively while our attempt was failing;
      // the connection is demonstrably alive — nothing to heal.
      return;
    }
    // We hold a connection whose peer answers on no URI and has been
    // silent past the ping interval; the entry is stale and keeping it
    // would poison greedy routing.
    drop_connection(peer, /*send_close=*/false, DisconnectCause::kLinkError);
  }
  if (!config_.relay_enabled) return;
  // Relay fallback serves the ring invariant: only a structured-near
  // role justifies the tunnel overhead (far/shortcut links are optional
  // accelerators, and leaf bootstrap is retried by its overlord).
  if (type != ConnectionType::kStructuredNear) return;
  relays_->start_attempt(peer);
}

void Node::refresh_connections() {
  // Our advertised URI set changed (we just learnt a NAT-assigned public
  // endpoint).  Peers that linked with us earlier recorded the stale
  // list and propagate it through CTM neighbor hints — re-offer the
  // handshake so they store the complete set.  The peers answer
  // idempotently (token 0 replies match no attempt and are ignored).
  table_.for_each([this](const Connection& c) {
    // Relay peers are skipped: an unwrapped request would reach the
    // AGENT's endpoint and read as a link request from us to the agent.
    // The tunneled peer learns our full URI set at upgrade time.
    if (c.is_relay()) return;
    LinkFrame req;
    req.type = LinkType::kRequest;
    req.sender = config_.address;
    req.con_type = c.type;
    req.token = 0;
    req.uris = edges_->local_uris();
    edges_->send_to(c.remote, req.serialize());
  });
}

void Node::trim_connections() {
  if (!routable()) return;
  auto per_side = static_cast<std::size_t>(config_.near_per_side);
  SimTime now = timers_.now();
  // Hysteresis: only links old enough to have survived several ticks
  // are trim candidates, so a link being raced into place (or a
  // momentary view disagreement with the peer) is never churned.
  const SimDuration min_age = 4 * config_.maintenance_period;
  RingId half = ring_half();
  // for_each iterates in clockwise order from self, so `right` arrives
  // nearest-first and `left` arrives farthest-(counter-clockwise)-first.
  std::vector<std::pair<Address, SimTime>> right, left;
  table_.for_each([&](const Connection& c) {
    if (c.type != ConnectionType::kStructuredNear) return;
    RingId cw = config_.address.clockwise_distance(c.addr);
    (cw < half ? right : left).emplace_back(c.addr, c.established);
  });
  // One drop per tick (gentle decay; a post-churn surplus drains over
  // a few maintenance periods without destabilizing the ring).
  Address victim;
  bool found = false;
  for (std::size_t i = right.size(); i > per_side && !found; --i) {
    if (now - right[i - 1].second >= min_age) {
      victim = right[i - 1].first;
      found = true;
    }
  }
  for (std::size_t i = 0; !found && i + per_side < left.size(); ++i) {
    if (now - left[i].second >= min_age) {
      victim = left[i].first;
      found = true;
    }
  }
  if (!found) return;
  // Close gracefully: the peer drops its mirror entry immediately
  // instead of waiting out the keepalive, keeping both tables at the
  // steady-state size the megascale budget assumes.
  drop_connection(victim, /*send_close=*/true, DisconnectCause::kTrimmed);
}

void Node::drop_connection(const Address& peer, bool send_close,
                           DisconnectCause cause) {
  Connection* c = table_.find(peer);
  if (c == nullptr) return;
  if (send_close) {
    LinkFrame close;
    close.type = LinkType::kClose;
    close.sender = config_.address;
    close.con_type = c->type;
    send_link_frame(*c, close);
  }
  ConnectionType type = c->type;
  // How long the link demonstrably worked: detection latency after the
  // peer went silent must not count toward the flap-lifetime test, or
  // every real flap would look long-lived.
  SimDuration lifetime = c->last_heard - c->established;
  table_.remove(peer);
  keepalive_->erase_ping_state(peer);
  if (type == ConnectionType::kStructuredNear ||
      type == ConnectionType::kRelay) {
    ctm_->note_neighborhood_change();
  }
  ++stats_.connections_lost;
  ++stats_.lost_by_cause[static_cast<std::size_t>(cause)];
  // A trim is a policy decision about a healthy link, not a path
  // failure — it must not feed the flap/quarantine accounting.
  if (cause != DisconnectCause::kTrimmed) {
    keepalive_->note_flap(peer, lifetime);
  }
  flight_.record(timers_.now(), FlightKind::kConnLost, peer.brief(),
                 int(type), int(cause));
  WOW_LOG(logger_, LogLevel::kDebug, timers_.now(), log_component_,
          std::string("-conn ") + to_string(type) + " " + peer.brief() +
              " (" + to_string(cause) + ")");
  if (tracer_.enabled(TraceClass::kLifecycle)) {
    tracer_.event(timers_.now(), "node", trace_node_, "conn.lost",
                  {{"peer", peer.brief()},
                   {"ctype", to_string(type)},
                   {"cause", to_string(cause)}});
  }

  // A dead peer may have been the agent of relay tunnels: they die with
  // it.  (Relay connections are never agents themselves, so the cascade
  // is one level deep.)
  std::vector<Address> orphaned;
  table_.for_each([&](const Connection& t) {
    if (t.is_relay() && t.relay == peer) orphaned.push_back(t.addr);
  });
  for (const Address& a : orphaned) {
    drop_connection(a, /*send_close=*/false, DisconnectCause::kRelayDown);
  }
}

bool Node::routable() const {
  return running_ && table_.near_on_both_sides();
}

void Node::update_routable() {
  if (!routable_since_ && routable()) {
    routable_since_ = timers_.now();
    flight_.record(timers_.now(), FlightKind::kRoutable, {},
                   static_cast<std::int32_t>(table_.size()));
    log(LogLevel::kInfo, "fully routable");
    if (tracer_.enabled(TraceClass::kLifecycle)) {
      tracer_.event(timers_.now(), "node", trace_node_, "node.routable",
                    {{"connections", int(table_.size())}});
    }
  }
}

std::size_t Node::shortcut_connection_count() const {
  return table_.count(ConnectionType::kShortcut);
}

// --- overlord tick -----------------------------------------------------------

void Node::maintenance() {
  if (!running_) return;
  bootstrap_->maintain_leaf();
  bootstrap_->maintain_bootstrap();
  bootstrap_->refresh_cache();
  ctm_->maintain_near();
  ctm_->maintain_far();
  census_->maintain();
  trim_connections();
  relays_->maintain();
  shortcuts_->sweep(timers_.now());
  ctm_->sweep();
  keepalive_->decay_health();

  SimDuration period = config_.maintenance_period;
  maintenance_timer_ = timers_.schedule(
      period / 2 + rng_.jitter(period), [this] { maintenance(); });
}

// --- adaptive self-healing introspection -------------------------------------

std::size_t Node::ping_state_count() const {
  return keepalive_->ping_state_count();
}

SimTime Node::bootstrap_retry_after(std::size_t i) const {
  return bootstrap_->endpoint_retry_after(i);
}

std::size_t Node::pending_ctm_count() const { return ctm_->pending_count(); }

bool Node::is_quarantined(const Address& peer) const {
  return keepalive_->is_quarantined(peer);
}

SimTime Node::quarantine_until(const Address& peer) const {
  return keepalive_->quarantine_until(peer);
}

SimDuration Node::srtt_of(const Address& peer) const {
  return keepalive_->srtt_of(peer);
}

}  // namespace wow::p2p
