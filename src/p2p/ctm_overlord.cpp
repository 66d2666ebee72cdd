#include "p2p/ctm_overlord.h"

#include <algorithm>
#include <cmath>

#include "p2p/ring_math.h"

namespace wow::p2p {

namespace {

/// Floor of the adaptive CTM timeout, and the timeout used before any
/// reply has been measured.
constexpr SimDuration kCtmRtoMin = 2 * kSecond;
constexpr SimDuration kCtmRtoInitial = 10 * kSecond;
/// Recently-answered CTM (src, token) pairs remembered per node; a
/// duplicate inside the window is answered minimally (no link_start,
/// no gossip) so replayed joins cannot re-trigger link attempts.
constexpr std::size_t kCtmReplayWindow = 64;

}  // namespace

void CtmOverlord::reset() {
  pending_ctms_.clear();
  ctm_srtt_ = 0;
  ctm_rttvar_ = 0;
  replay_window_.clear();
  replay_cursor_ = 0;
}

bool CtmOverlord::check_replay(const Address& src, std::uint32_t token) {
  for (const AnsweredCtm& seen : replay_window_) {
    if (seen.token == token && seen.src == src) return true;
  }
  if (replay_window_.size() < kCtmReplayWindow) {
    replay_window_.push_back(AnsweredCtm{src, token});
  } else {
    replay_window_[replay_cursor_] = AnsweredCtm{src, token};
    replay_cursor_ = (replay_cursor_ + 1) % kCtmReplayWindow;
  }
  return false;
}

void CtmOverlord::initiate(const Address& target, ConnectionType type) {
  if (!hooks_.running() || table_.empty()) return;
  if (hooks_.is_quarantined(target)) return;
  std::uint32_t token = mint_token();

  CtmRequest req;
  req.con_type = type;
  req.token = token;
  req.uris = hooks_.local_uris();

  RoutedPacket packet;
  packet.src = table_.self();
  packet.dst = target;
  packet.ttl = RoutedPacket::kOriginTtl;
  packet.mode = DeliveryMode::kNearest;
  packet.type = RoutedType::kCtmRequest;
  packet.trace_id = tracer_.next_trace_id();
  packet.set_payload(req.serialize());

  std::uint64_t span = 0;
  if (tracer_.enabled(TraceClass::kProtocol)) {
    span = tracer_.begin_span(timers_.now(), "node", trace_node_,
                              "ctm.request",
                              {{"target", target.brief()},
                               {"ctype", to_string(type)},
                               {"token", unsigned(token)},
                               {"pkt", packet.trace_id}});
  }
  pending_ctms_[token] =
      PendingCtm{target, type, timers_.now(), span,
                 /*retries_left=*/config_.adaptive_timers ? kCtmMaxRetries
                                                          : 0,
                 /*retransmitted=*/false};
  ++stats_.ctm_sent;
  // Targeted acquisitions only (join/stabilize announces would cycle
  // the ring every stabilize period and evict the interesting events).
  flight_.record(timers_.now(), FlightKind::kCtmSent, target.brief(),
                 int(type));
  hooks_.route(std::move(packet));
}

void CtmOverlord::send_join() {
  // Announce ourselves to our own ring position via forwarding agents:
  // the packet lands on both endpoints of our gap, which then link to us
  // (§IV-C).  When already in the ring this is the stabilization probe.
  //
  // Agents are the two table neighbors PLUS one random connection.  The
  // random vantage point is essential: concurrent mass joins can build
  // interleaved parallel successor chains, and an announce routed only
  // through one's own (same-chain) neighbors is always consumed inside
  // that chain.  Greedy descent from an unrelated node crosses into the
  // other chain and merges them — the role the paper's leaf target
  // plays for a fresh joiner.
  const Connection* right = table_.right_neighbor();
  const Connection* left = table_.left_neighbor();
  if (right == nullptr) return;

  const Connection* random_agent = &table_.nth(static_cast<std::size_t>(
      rng_.uniform(0, static_cast<std::int64_t>(table_.size()) - 1)));
  if (random_agent == right || random_agent == left) random_agent = nullptr;

  const Connection* agents[3] = {right, left != right ? left : nullptr,
                                 random_agent};
  for (const Connection* agent : agents) {
    if (agent == nullptr) continue;

    std::uint32_t token = mint_token();
    CtmRequest req;
    req.con_type = ConnectionType::kStructuredNear;
    req.token = token;
    req.forwarder = agent->addr;
    req.uris = hooks_.local_uris();

    RoutedPacket packet;
    packet.src = table_.self();
    packet.dst = table_.self();
    packet.ttl = RoutedPacket::kOriginTtl;
    packet.mode = DeliveryMode::kNearest;
    packet.type = RoutedType::kCtmRequest;
    packet.trace_id = tracer_.next_trace_id();
    packet.set_payload(req.serialize());

    std::uint64_t span = 0;
    if (tracer_.enabled(TraceClass::kProtocol)) {
      span = tracer_.begin_span(timers_.now(), "node", trace_node_,
                                "ctm.request",
                                {{"target", table_.self().brief()},
                                 {"ctype", "near"},
                                 {"token", unsigned(token)},
                                 {"agent", agent->addr.brief()},
                                 {"pkt", packet.trace_id},
                                 {"join", 1}});
    }
    pending_ctms_[token] =
        PendingCtm{table_.self(), ConnectionType::kStructuredNear,
                   timers_.now(), span};
    ++stats_.ctm_sent;
    hooks_.forward_to(*agent, std::move(packet));
  }
}

bool CtmOverlord::wants_near(const Address& peer) const {
  if (peer == table_.self() || config_.near_per_side <= 0) return false;
  const auto per_side = static_cast<std::size_t>(config_.near_per_side);
  return table_.near_inside(peer, per_side) < per_side;
}

void CtmOverlord::handle_request(const RoutedPacket& packet,
                                 const net::Endpoint& from) {
  if (packet.src == table_.self()) return;  // our own announcement
  ++stats_.ctm_received;
  auto req = CtmRequest::parse(packet.payload());
  if (!req) {
    ++stats_.parse_rejects;
    return;
  }
  if (tracer_.enabled(TraceClass::kProtocol)) {
    tracer_.event(timers_.now(), "node", trace_node_, "ctm.received",
                  {{"src", packet.src.brief()},
                   {"ctype", to_string(req->con_type)},
                   {"token", unsigned(req->token)},
                   {"pkt", packet.trace_id},
                   {"hops", int(packet.hops)}});
  }

  // Replay window (DESIGN §16): a (src, token) pair we already answered
  // is either a captured-and-replayed CTM or a legit retransmission
  // whose reply was lost — indistinguishable without crypto.  Answer
  // minimally (our URIs, no hints, no gossip, no link_start) so a real
  // retransmitter still converges, while a replayed join can neither
  // re-trigger link attempts nor drain gossip samples, and — because
  // the minimal reply draws no RNG — cannot perturb determinism.  The
  // claimed src is unauthenticated, so replays are counted, never
  // scored against it (an adversary replaying an honest node's join
  // must not get that node quarantined).
  if (config_.defenses_enabled && req->token != 0 &&
      check_replay(packet.src, req->token)) {
    ++stats_.replays_detected;
    flight_.record(timers_.now(), FlightKind::kReplayHit, packet.src.brief(),
                   static_cast<std::int32_t>(req->token));
    if (tracer_.enabled(TraceClass::kProtocol)) {
      tracer_.event(timers_.now(), "node", trace_node_, "ctm.replay",
                    {{"src", packet.src.brief()},
                     {"token", unsigned(req->token)},
                     {"from", from.to_string()}});
    }
    CtmReply minimal;
    minimal.con_type = req->con_type;
    minimal.token = req->token;
    minimal.uris = hooks_.local_uris();
    RoutedPacket out;
    out.src = table_.self();
    out.dst = packet.src;
    out.via = req->forwarder;
    out.ttl = RoutedPacket::kOriginTtl;
    out.mode = DeliveryMode::kExact;
    out.type = RoutedType::kCtmReply;
    out.trace_id = tracer_.next_trace_id();
    out.set_payload(minimal.serialize());
    hooks_.route(std::move(out));
    return;
  }

  // A join announce is consumed by the gap endpoints AND (via the
  // bounce) by whatever bystander brackets the gap from the far side —
  // its reply hints matter, but a near LINK to it does not.  Only link
  // when the requester would actually enter our near set; otherwise
  // every stabilize round re-acquires links the retention sweep closes.
  bool link_wanted = req->con_type != ConnectionType::kStructuredNear ||
                     wants_near(packet.src);

  // Already connected (e.g. a leaf link): record the stronger role the
  // peer is asking for; no new handshake is needed.  A relay tunnel is
  // NOT role-upgraded — it stays kRelay until a direct link replaces it
  // (the handshake below doubles as the upgrade probe).
  if (Connection* existing = table_.find(packet.src)) {
    if (!existing->is_relay() && link_wanted) {
      Connection upgraded = *existing;
      upgraded.type = req->con_type;
      table_.add(std::move(upgraded));
      hooks_.update_routable();
    }
  }

  CtmReply reply;
  reply.con_type = req->con_type;
  reply.token = req->token;
  reply.uris = hooks_.local_uris();
  // Hint the requester with our best-known bracket of ITS ring
  // position.  The requester links to the hints, so its next
  // announcement starts from a strictly tighter vantage point — the
  // ring converges even from a mass simultaneous join, Chord-style.
  const Connection* succ = table_.successor_of(packet.src);
  const Connection* pred = table_.predecessor_of(packet.src);
  if (succ != nullptr) {
    reply.neighbors.push_back(NeighborHint{succ->addr, succ->uris});
  }
  if (pred != nullptr && pred != succ) {
    reply.neighbors.push_back(NeighborHint{pred->addr, pred->uris});
  }
  // Gossip peer sampling, piggybacked on the join reply: a few random
  // table peers beyond the bracket hints.  Joiners squirrel them into
  // their bootstrap cache, so a flash crowd's rejoin load spreads over
  // the whole overlay instead of re-converging on the well-known
  // endpoints.
  if (config_.gossip_samples > 0 &&
      req->con_type == ConnectionType::kStructuredNear) {
    std::vector<const Connection*> pool;
    table_.for_each([&](const Connection& c) {
      if (c.is_relay() || c.uris.empty()) return;
      if (c.addr == packet.src) return;
      if (succ != nullptr && c.addr == succ->addr) return;
      if (pred != nullptr && c.addr == pred->addr) return;
      pool.push_back(&c);
    });
    const int want = std::min<int>(config_.gossip_samples,
                                   static_cast<int>(pool.size()));
    for (int i = 0; i < want; ++i) {
      // Partial Fisher-Yates off the shared RNG: deterministic under
      // the seed, unbiased over the pool.
      const auto j = static_cast<std::size_t>(rng_.uniform(
          i, static_cast<std::int64_t>(pool.size()) - 1));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      const Connection* pick = pool[static_cast<std::size_t>(i)];
      reply.samples.push_back(NeighborHint{pick->addr, pick->uris});
    }
  }

  RoutedPacket out;
  out.src = table_.self();
  out.dst = packet.src;
  out.via = req->forwarder;
  out.ttl = RoutedPacket::kOriginTtl;
  out.mode = DeliveryMode::kExact;
  out.type = RoutedType::kCtmReply;
  out.trace_id = tracer_.next_trace_id();
  out.set_payload(reply.serialize());
  hooks_.route(std::move(out));

  // The CTM target initiates linking right away (§IV-B step 2b): its
  // outbound packets punch the NAT hole for the initiator's attempt.
  if (link_wanted) {
    hooks_.link_start(packet.src, req->con_type, req->uris);
  }
}

void CtmOverlord::handle_reply(const RoutedPacket& packet,
                               const net::Endpoint& from) {
  auto reply = CtmReply::parse(packet.payload());
  if (!reply) {
    ++stats_.parse_rejects;
    return;
  }
  auto pending = pending_ctms_.find(reply->token);
  if (pending == pending_ctms_.end()) {
    // No matching request.  Honest causes exist (both gap endpoints of
    // a kNearest join announce reply with the same token; the first
    // erases the pending entry) — but so does forged-token spray, so
    // the count is the byzantine soak's signal.  Never scored: the
    // claimed src is unauthenticated and duplicates are routine
    // (DESIGN §16).
    ++stats_.unsolicited_replies;
    if (tracer_.enabled(TraceClass::kProtocol)) {
      const Connection* direct = table_.find(packet.src);
      tracer_.event(timers_.now(), "node", trace_node_, "ctm.unsolicited",
                    {{"src", packet.src.brief()},
                     {"token", unsigned(reply->token)},
                     {"endpoint_consistent",
                      direct != nullptr && !direct->is_relay() &&
                              direct->remote == from
                          ? 1
                          : 0}});
    }
    return;
  }
  ConnectionType type = pending->second.type;
  SimDuration rtt = timers_.now() - pending->second.sent;
  if (pending->second.span != 0) {
    tracer_.end_span(
        timers_.now(), "node", trace_node_, "ctm.reply",
        pending->second.span,
        {{"responder", packet.src.brief()},
         {"rtt_s", to_seconds(rtt)},
         {"hops", int(packet.hops)},
         {"neighbors", int(reply->neighbors.size())}});
  }
  // The request→reply round-trip calibrates the CTM timeout.  Karn:
  // a reply to a retransmitted request is ambiguous, skip it.
  if (!pending->second.retransmitted) {
    rtt_update(ctm_srtt_, ctm_rttvar_, rtt);
  }
  pending_ctms_.erase(pending);

  // Same admission rule as handle_request: a reply from a far-side
  // bystander (bounced announce) or a hint pointing at a 2-hop
  // neighbor must not grow the near set past near_per_side — the
  // ratchet only tightens, it never re-widens.
  bool link_wanted = type != ConnectionType::kStructuredNear ||
                     wants_near(packet.src);
  if (Connection* existing = table_.find(packet.src)) {
    if (!existing->is_relay() && link_wanted) {
      Connection upgraded = *existing;
      upgraded.type = type;
      table_.add(std::move(upgraded));
      hooks_.update_routable();
    }
  }
  if (link_wanted) {
    hooks_.link_start(packet.src, type, reply->uris);
  }

  // A join reply carries the responder's neighbor hints: link to the
  // far side of our gap too (when they would tighten our bracket).
  if (type == ConnectionType::kStructuredNear) {
    for (const NeighborHint& hint : reply->neighbors) {
      if (hint.addr == table_.self()) continue;
      if (!wants_near(hint.addr)) continue;
      hooks_.link_start(hint.addr, ConnectionType::kStructuredNear,
                        hint.uris);
    }
  }
  // Gossip samples never trigger links — they only warm the owner's
  // bootstrap peer cache.
  if (hooks_.note_peer) {
    for (const NeighborHint& sample : reply->samples) {
      if (sample.addr == table_.self()) continue;
      hooks_.note_peer(sample.addr, sample.uris, packet.src);
    }
  }
}

void CtmOverlord::maintain_near() {
  if (table_.empty()) return;
  SimTime now = timers_.now();
  // Announce aggressively while joining OR while the neighborhood is
  // still in flux (a fresh near link means the hint-ratchet has not yet
  // converged on the true ring position); relax to the slow cadence
  // once things are quiet.
  bool unsettled = !hooks_.routable() || now < fast_stabilize_until_;
  SimDuration interval =
      unsettled ? 5 * kSecond : config_.stabilize_period;
  if (now - last_stabilize_ >= interval) {
    last_stabilize_ = now;
    send_join();
  }
}

void CtmOverlord::maintain_far() {
  if (!hooks_.routable()) return;
  if (static_cast<int>(table_.count(ConnectionType::kStructuredFar)) >=
      config_.far_target) {
    return;
  }
  initiate(pick_far_target(), ConnectionType::kStructuredFar);
}

void CtmOverlord::sweep() {
  // CTM requests whose replies never came: retransmit while the retry
  // budget lasts (adaptive timeout), then count the timeout and drop.
  SimDuration timeout = ctm_timeout();
  for (auto it = pending_ctms_.begin(); it != pending_ctms_.end();) {
    if (timers_.now() - it->second.sent <= timeout) {
      ++it;
      continue;
    }
    if (it->second.retries_left > 0) {
      retry(it->first, it->second);
      ++it;
      continue;
    }
    ++stats_.ctm_timeouts;
    flight_.record(timers_.now(), FlightKind::kCtmTimeout,
                   it->second.target.brief(), int(it->second.type));
    if (it->second.span != 0) {
      tracer_.end_span(timers_.now(), "node", trace_node_, "ctm.expired",
                       it->second.span,
                       {{"target", it->second.target.brief()}});
    }
    it = pending_ctms_.erase(it);
  }
}

void CtmOverlord::retry(std::uint32_t token, PendingCtm& pending) {
  --pending.retries_left;
  pending.retransmitted = true;
  pending.sent = timers_.now();
  ++stats_.ctm_retries;

  CtmRequest req;
  req.con_type = pending.type;
  req.token = token;
  req.uris = hooks_.local_uris();

  RoutedPacket packet;
  packet.src = table_.self();
  packet.dst = pending.target;
  packet.ttl = RoutedPacket::kOriginTtl;
  packet.mode = DeliveryMode::kNearest;
  packet.type = RoutedType::kCtmRequest;
  packet.trace_id = tracer_.next_trace_id();
  packet.set_payload(req.serialize());

  if (pending.span != 0) {
    tracer_.event(timers_.now(), "node", trace_node_, "ctm.retry",
                  {{"target", pending.target.brief()},
                   {"token", unsigned(token)},
                   {"retries_left", pending.retries_left},
                   {"pkt", packet.trace_id}},
                  pending.span);
  }
  ++stats_.ctm_sent;
  hooks_.route(std::move(packet));
}

SimDuration CtmOverlord::ctm_timeout() const {
  if (!config_.adaptive_timers) return kCtmRtoMax;
  if (ctm_srtt_ == 0) return kCtmRtoInitial;
  return std::clamp(ctm_srtt_ + 4 * ctm_rttvar_, kCtmRtoMin, kCtmRtoMax);
}

double CtmOverlord::estimate_network_size() const {
  const Connection* right = table_.right_neighbor();
  const Connection* left = table_.left_neighbor();
  if (right == nullptr) return 1.0;
  double gap_sum = 0.0;
  int gaps = 0;
  gap_sum += table_.self().clockwise_distance(right->addr).to_double();
  ++gaps;
  if (left != nullptr && left != right) {
    gap_sum += left->addr.clockwise_distance(table_.self()).to_double();
    ++gaps;
  }
  double mean_gap = gap_sum / gaps;
  double ring = RingId::max().to_double();
  return std::max(1.0, ring / std::max(mean_gap, 1.0));
}

Address CtmOverlord::pick_far_target() {
  // Symphony-style harmonic sampling [37]: pick a clockwise offset that
  // is an n^(u-1) fraction of the ring, so far links concentrate near
  // but still reach across the whole ring.
  double n = estimate_network_size();
  double u = rng_.uniform01();
  double fraction = std::pow(std::max(n, 2.0), u - 1.0);
  return table_.self() + fraction_of_ring(fraction);
}

}  // namespace wow::p2p
