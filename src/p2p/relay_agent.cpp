#include "p2p/relay_agent.h"

#include <algorithm>

#include "common/log.h"
#include "common/trace.h"
#include "p2p/keepalive.h"
#include "p2p/misbehavior.h"
#include "p2p/node.h"

namespace wow::p2p {

namespace {

/// Per-agent wait for the tunnel handshake before trying the next
/// candidate agent.
constexpr SimDuration kRelayRequestTimeout = 5 * kSecond;
/// Candidate agents tried per relay attempt.
constexpr std::size_t kRelayMaxCandidates = 3;

}  // namespace

void RelayAgent::reject_forged(const Address& claimed,
                               const net::Endpoint& from, const char* reason,
                               bool score) {
  const SimTime now = node_.timers_.now();
  ++node_.stats_.forged_relay_rejects;
  node_.flight_.record(now, FlightKind::kForgedRelay, claimed.brief());
  if (node_.tracer_.enabled(TraceClass::kProtocol)) {
    node_.tracer_.event(now, "node", node_.trace_node_, "relay.forged",
                        {{"claimed", claimed.brief()},
                         {"from", from.to_string()},
                         {"reason", reason},
                         {"scored", score}});
  }
  if (score) node_.note_misbehavior(from, kMisbehaviorForgedRelay);
}

void RelayAgent::handle_frame(RelayFrame relay, const net::Endpoint& from) {
  if (relay.dst != node_.table_.self()) {
    // We are the agent.  Forward exactly once, and only over a direct
    // connection — tunnels never chain.
    if (relay.hops != 0) return;
    if (node_.config_.defenses_enabled) {
      // Header sanity (DESIGN §16).  A frame asking us to forward must
      // name US as the agent — honest initiators only ever hand a
      // relay frame to the agent written into it.  Its claimed src must
      // be a peer we hold a direct connection to, speaking from that
      // connection's endpoint — otherwise the src is spoofed and
      // forwarding would launder the forger's identity behind ours.
      if (relay.relay != node_.table_.self()) {
        reject_forged(relay.src, from, "wrong_agent", /*score=*/true);
        return;
      }
      const Connection* srcc = node_.table_.find(relay.src);
      if (srcc == nullptr || srcc->is_relay()) {
        // Unknown src: spoof OR a drop race with an honest tunnel user
        // — indistinguishable, so refuse without scoring.
        reject_forged(relay.src, from, "unknown_src", /*score=*/false);
        return;
      }
      if (srcc->remote != from) {
        reject_forged(relay.src, from, "src_endpoint", /*score=*/true);
        return;
      }
    }
    const Connection* next = node_.table_.find(relay.dst);
    if (next == nullptr || next->is_relay()) {
      if (node_.tracer_.enabled(TraceClass::kProtocol)) {
        node_.tracer_.event(node_.timers_.now(), "node", node_.trace_node_,
                            "relay.refuse",
                            {{"src", relay.src.brief()},
                             {"dst", relay.dst.brief()}});
      }
      return;
    }
    ++node_.stats_.relay_forwarded;
    node_.edges_->send_to(next->remote, relay.forwarded());
    return;
  }

  // We are the tunnel endpoint: an inner frame from relay.src reached us
  // through the agent — that is this connection's liveness signal.
  // With defenses on, only frames arriving from the tunnel's recorded
  // agent endpoint count (a spoofer must not keep a dead tunnel alive).
  if (Connection* c = node_.table_.find(relay.src)) {
    if (c->is_relay() &&
        (!node_.config_.defenses_enabled || c->remote == from)) {
      c->last_heard = node_.timers_.now();
    }
  }

  BytesView inner = relay.payload();
  auto kind = frame_kind(inner);
  if (!kind) {
    ++node_.stats_.parse_rejects;
    return;
  }
  if (*kind == FrameKind::kRouted) {
    auto packet = RoutedPacket::parse(inner);
    if (packet) {
      node_.route(std::move(*packet), from);
    } else {
      ++node_.stats_.parse_rejects;
    }
  } else if (*kind == FrameKind::kLink) {
    auto frame = LinkFrame::parse(inner);
    if (frame) {
      handle_relay_link(*frame, relay, from);
    } else {
      ++node_.stats_.parse_rejects;
    }
  }
  // A nested relay frame is never legal; drop it silently (the hops
  // check above already stops multi-hop tunneling on the agent side).
}

void RelayAgent::handle_relay_link(const LinkFrame& frame,
                                   const RelayFrame& outer,
                                   const net::Endpoint& from) {
  // Every honest tunneled link frame speaks for the tunnel source
  // itself: inner sender == outer src (the endpoint and the initiator
  // both wrap their own frames).  A mismatch is a ventriloquist — e.g.
  // a tunneled kClose naming a third party to sever its connections.
  if (node_.config_.defenses_enabled && frame.sender != outer.src) {
    reject_forged(frame.sender, from, "ventriloquist", /*score=*/false);
    return;
  }
  switch (frame.type) {
    case LinkType::kRequest: {
      if (frame.con_type != ConnectionType::kRelay) return;
      // Tunnel handshake: the initiator could not reach us directly and
      // asks to converse through outer.relay.  Accept if we can reach
      // that agent directly ourselves (it is a mutual neighbor).
      const Connection* agent = node_.table_.find(outer.relay);
      if (agent == nullptr || agent->is_relay()) return;
      if (node_.config_.defenses_enabled) {
        if (agent->remote != from) {
          // Claims to have traveled via an agent we hold, but arrived
          // from some other endpoint: the path is forged first-hand.
          reject_forged(frame.sender, from, "agent_endpoint",
                        /*score=*/true);
          return;
        }
        // Mutual-interest gate (DESIGN §16): a tunnel installs a
        // connection WITHOUT a direct handshake, so accept only peers
        // we ourselves wanted — an in-flight or recent link attempt, or
        // RTT history from an earlier conversation.  Closes the
        // no-handshake phantom install.
        bool wanted = node_.linking_->attempting(frame.sender) ||
                      node_.linking_->recently_tried(frame.sender) ||
                      node_.keepalive_->peer_rto_hint(frame.sender) > 0;
        if (!wanted || node_.keepalive_->is_quarantined(frame.sender)) {
          // Not scored: the frame arrived through an honest agent that
          // merely forwarded it.
          reject_forged(frame.sender, from, "unsolicited",
                        /*score=*/false);
          return;
        }
      }
      // Copied first: the insert below can move every table entry,
      // `agent` included.
      const net::Endpoint agent_endpoint = agent->remote;
      add_relay_connection(frame.sender, outer.relay, agent_endpoint,
                           frame.uris);
      LinkFrame reply;
      reply.type = LinkType::kReply;
      reply.sender = node_.table_.self();
      reply.con_type = ConnectionType::kRelay;
      reply.token = frame.token;
      reply.uris = node_.edges_->local_uris();
      node_.edges_->send_to(agent_endpoint,
                            RelayFrame::wrap(node_.table_.self(), outer.relay,
                                             frame.sender, reply.serialize()));
      return;
    }
    case LinkType::kReply: {
      if (frame.con_type != ConnectionType::kRelay) return;
      auto it = relay_attempts_.find(frame.sender);
      if (it == relay_attempts_.end() || it->second.token != frame.token) {
        return;  // late duplicate, or an attempt we already finished
      }
      const Address& agent = it->second.candidates[it->second.index];
      const Connection* agent_conn = node_.table_.find(agent);
      if (agent_conn == nullptr || agent_conn->is_relay()) return;
      if (node_.config_.defenses_enabled && agent_conn->remote != from) {
        // A token-matched reply must arrive via the candidate agent we
        // asked; a guessed-token forgery from elsewhere must not plant
        // its URIs into the tunnel connection.
        reject_forged(frame.sender, from, "reply_endpoint", /*score=*/true);
        return;
      }
      add_relay_connection(frame.sender, agent, agent_conn->remote,
                           frame.uris);
      finish_attempt(frame.sender, "relay.established");
      return;
    }
    case LinkType::kPing: {
      Connection* c = node_.table_.find(frame.sender);
      if (c == nullptr) {
        // §V-E as for direct pings: a tunnel ping for a connection we no
        // longer hold gets a Close so the peer re-establishes.
        const Connection* agent = node_.table_.find(outer.relay);
        if (agent == nullptr || agent->is_relay()) return;
        LinkFrame close;
        close.type = LinkType::kClose;
        close.sender = node_.table_.self();
        close.con_type = frame.con_type;
        node_.edges_->send_to(
            agent->remote, RelayFrame::wrap(node_.table_.self(), outer.relay,
                                            frame.sender, close.serialize()));
        return;
      }
      LinkFrame pong;
      pong.type = LinkType::kPong;
      pong.sender = node_.table_.self();
      pong.con_type = frame.con_type;
      pong.token = frame.token;
      node_.send_link_frame(*c, pong);
      return;
    }
    case LinkType::kPong:
      // Same RTT-sampling path as a direct pong; the source endpoint is
      // irrelevant (liveness was credited in handle_frame).
      node_.handle_link(frame, net::Endpoint{});
      return;
    case LinkType::kClose:
      node_.drop_connection(frame.sender, /*send_close=*/false,
                            DisconnectCause::kCloseFrame);
      return;
    case LinkType::kError:
      return;  // races cannot happen on tunnels (token-matched)
  }
}

void RelayAgent::start_attempt(const Address& peer) {
  if (relay_attempts_.count(peer) != 0) return;
  // Candidate agents: peers WE hold a direct connection to, nearest to
  // the unreachable peer on the ring first — the likeliest to be its
  // neighbor too, i.e. a mutual neighbor that can hand frames across.
  std::vector<const Connection*> direct;
  node_.table_.for_each([&](const Connection& c) {
    if (!c.is_relay() && c.addr != peer) direct.push_back(&c);
  });
  if (direct.empty()) return;
  std::stable_sort(direct.begin(), direct.end(),
                   [&](const Connection* a, const Connection* b) {
                     return a->addr.ring_distance(peer) <
                            b->addr.ring_distance(peer);
                   });
  RelayAttempt attempt;
  for (const Connection* c : direct) {
    attempt.candidates.push_back(c->addr);
    if (attempt.candidates.size() >= kRelayMaxCandidates) break;
  }
  attempt.token = next_relay_token_++;
  attempt.started = node_.timers_.now();
  if (node_.tracer_.enabled(TraceClass::kProtocol)) {
    attempt.span = node_.tracer_.begin_span(
        node_.timers_.now(), "node", node_.trace_node_, "relay.attempt",
        {{"peer", peer.brief()},
         {"candidates", int(attempt.candidates.size())}});
  }
  relay_attempts_.emplace(peer, std::move(attempt));
  send_request(peer);
}

void RelayAgent::send_request(const Address& peer) {
  auto it = relay_attempts_.find(peer);
  if (it == relay_attempts_.end()) return;
  RelayAttempt& attempt = it->second;
  if (attempt.index >= attempt.candidates.size()) {
    finish_attempt(peer, "relay.exhausted");
    return;
  }
  const Address& agent = attempt.candidates[attempt.index];
  const Connection* agent_conn = node_.table_.find(agent);
  if (agent_conn == nullptr || agent_conn->is_relay()) {
    // The candidate vanished since we enumerated it; try the next.
    ++attempt.index;
    send_request(peer);
    return;
  }
  if (node_.tracer_.enabled(TraceClass::kProtocol)) {
    node_.tracer_.event(node_.timers_.now(), "node", node_.trace_node_,
                        "relay.tx",
                        {{"peer", peer.brief()},
                         {"agent", agent.brief()},
                         {"candidate", int(attempt.index)}},
                        attempt.span);
  }
  LinkFrame req;
  req.type = LinkType::kRequest;
  req.sender = node_.table_.self();
  req.con_type = ConnectionType::kRelay;
  req.token = attempt.token;
  req.uris = node_.edges_->local_uris();
  node_.edges_->send_to(agent_conn->remote,
                        RelayFrame::wrap(node_.table_.self(), agent, peer,
                                         req.serialize()));
  // One shot per agent: either the tunneled reply lands, or the timer
  // advances to the next candidate.  The request timeout shrinks with a
  // measured agent RTT (the tunnel leg we cannot measure is bounded by
  // the same WAN scale).
  SimDuration wait = kRelayRequestTimeout;
  if (node_.config_.adaptive_timers) {
    SimDuration hint = node_.keepalive_->peer_rto_hint(agent);
    if (hint > 0) {
      wait = std::clamp(4 * hint, kSecond, kRelayRequestTimeout);
    }
  }
  attempt.timer =
      node_.timers_.schedule(wait, [this, peer] { on_timeout(peer); });
}

void RelayAgent::on_timeout(const Address& peer) {
  auto it = relay_attempts_.find(peer);
  if (it == relay_attempts_.end()) return;
  ++it->second.index;
  send_request(peer);
}

void RelayAgent::finish_attempt(const Address& peer, const char* outcome) {
  auto it = relay_attempts_.find(peer);
  if (it == relay_attempts_.end()) return;
  node_.timers_.cancel(it->second.timer);
  if (it->second.span != 0) {
    const SimTime now = node_.timers_.now();
    node_.tracer_.end_span(
        now, "node", node_.trace_node_, outcome, it->second.span,
        {{"peer", peer.brief()},
         {"elapsed_s", to_seconds(now - it->second.started)}});
  }
  relay_attempts_.erase(it);
}

void RelayAgent::maintain() {
  if (!node_.config_.relay_enabled) return;
  SimTime now = node_.timers_.now();
  std::vector<const Connection*> due;
  node_.table_.for_each([&](const Connection& c) {
    if (!c.is_relay() || c.uris.empty()) return;
    if (node_.linking_->attempting(c.addr)) return;
    if (now < node_.keepalive_->next_direct_probe(c.addr)) return;
    due.push_back(&c);
  });
  for (const Connection* c : due) {
    node_.keepalive_->set_next_direct_probe(c->addr,
                                            now + kRelayProbeInterval);
    if (node_.tracer_.enabled(TraceClass::kProtocol)) {
      node_.tracer_.event(now, "node", node_.trace_node_, "relay.probe",
                          {{"peer", c->addr.brief()}});
    }
    // A plain active handshake over the peer's direct URIs: success
    // lands in on_link_established (the upgrade), exhaustion lands in
    // on_link_failed (keep tunnel, back off).
    node_.linking_->start(c->addr, ConnectionType::kStructuredNear, c->uris);
  }
}

void RelayAgent::abort_all() {
  for (auto& [peer, attempt] : relay_attempts_) {
    node_.timers_.cancel(attempt.timer);
  }
  relay_attempts_.clear();
}

void RelayAgent::add_relay_connection(
    const Address& peer, const Address& agent,
    const net::Endpoint& agent_endpoint,
    const std::vector<transport::Uri>& uris) {
  const SimTime now = node_.timers_.now();
  Connection c;
  c.addr = peer;
  c.type = ConnectionType::kRelay;
  c.remote = agent_endpoint;
  c.relay = agent;
  c.uris = uris;
  c.established = now;
  c.last_heard = now;
  node_.keepalive_->seed_estimator(c);
  bool added = node_.table_.add(std::move(c));
  if (!added) {
    // The table either refreshed an existing relay entry or protected a
    // direct connection (the merge never downgrades); nothing to count.
    node_.update_routable();
    return;
  }
  ++node_.stats_.connections_added;
  ++node_.stats_.relays_established;
  node_.keepalive_->set_next_direct_probe(peer, now + kRelayProbeInterval);
  node_.flight_.record(now, FlightKind::kRelayUp, peer.brief());
  WOW_LOG(node_.logger_, LogLevel::kInfo, now, node_.log_component_,
          "+conn relay " + peer.brief() + " via agent " + agent.brief());
  if (node_.tracer_.enabled(TraceClass::kLifecycle)) {
    node_.tracer_.event(now, "node", node_.trace_node_, "conn.added",
                        {{"peer", peer.brief()},
                         {"ctype", "relay"},
                         {"agent", agent.brief()},
                         {"remote", agent_endpoint.to_string()}});
  }
  node_.update_routable();
}

}  // namespace wow::p2p
