#include "p2p/linking.h"

#include <algorithm>

#include "p2p/misbehavior.h"

namespace wow::p2p {

namespace {

/// Floor for the adaptive per-attempt RTO (Callbacks::rto_hint); a
/// measured 2 ms LAN RTT must not shrink the handshake timer into
/// spurious-retransmit territory.  The hint is clamped to
/// [kLinkMinRto, kLinkInitialRto] — adaptation only ever speeds
/// linking up.
constexpr SimDuration kLinkMinRto = 250 * kMillisecond;
/// After a race abort (mutual link-error), wait this long (doubling,
/// with jitter, capped) before checking/retrying, at most
/// kLinkMaxRestarts times.
constexpr SimDuration kLinkRestartBackoff = 2 * kSecond;
constexpr SimDuration kLinkRestartBackoffMax = 60 * kSecond;
constexpr int kLinkMaxRestarts = 8;

}  // namespace

std::vector<transport::Uri> LinkingEngine::order_uris(
    std::vector<transport::Uri> uris) const {
  // Stable partition keeps relative order within each class.
  std::stable_sort(uris.begin(), uris.end(),
                   [&](const transport::Uri& a, const transport::Uri& b) {
                     bool a_pub = !a.endpoint.ip.is_private();
                     bool b_pub = !b.endpoint.ip.is_private();
                     if (a_pub == b_pub) return false;
                     return public_uri_first_ ? a_pub : !a_pub;
                   });
  return uris;
}

void LinkingEngine::start(const Address& target, ConnectionType type,
                          std::vector<transport::Uri> uris) {
  if (uris.empty()) return;
  if (target != Address{}) {
    if (Attempt* existing = by_target(target)) {
      // Fresh knowledge about a peer we are already handshaking with
      // (e.g. its CTM finally carried a learnt public URI): widen the
      // in-flight attempt's trial list rather than discarding it.
      bool promoted = false;
      for (const transport::Uri& uri : uris) {
        if (std::find(existing->uris.begin(), existing->uris.end(), uri) !=
            existing->uris.end()) {
          continue;
        }
        bool is_public = !uri.endpoint.ip.is_private();
        bool current_private =
            existing->uris[existing->uri_index].endpoint.ip.is_private();
        if (public_uri_first_ && is_public && current_private &&
            !existing->in_restart_wait) {
          // The ordering policy says public before private; a private
          // trial can burn the full retry schedule on an unroutable
          // address, so switch to the newly learnt public URI now.
          existing->uris.insert(
              existing->uris.begin() +
                  static_cast<std::ptrdiff_t>(existing->uri_index),
              uri);
          promoted = true;
        } else {
          existing->uris.push_back(uri);
        }
      }
      if (promoted) {
        existing->retries_left = kLinkMaxRetries;
        existing->rto = existing->initial_rto;
        timers_.cancel(existing->timer);
        send_request(*existing);
      }
      return;
    }
    if (callbacks_.has_connection(target)) return;
    if (callbacks_.is_quarantined && callbacks_.is_quarantined(target)) {
      return;
    }
  }
  ++stats_.attempts_started;
  if (target != Address{}) {
    recent_[recent_cursor_] = RecentAttempt{target, timers_.now()};
    recent_cursor_ = (recent_cursor_ + 1) % recent_.size();
  }
  // Keyed-hash token stream with defenses on: a forged reply needs the
  // token, and a sequential mint would hand it to anyone counting our
  // attempts (DESIGN §16).  No RNG drawn either way.
  std::uint32_t token;
  if (defenses_) {
    token = defense_token(self_, next_token_++);
    while (token == 0 || attempts_.count(token) != 0) ++token;
  } else {
    token = next_token_++;
  }
  Attempt attempt;
  attempt.target = target;
  attempt.type = type;
  attempt.token = token;
  attempt.uris = order_uris(std::move(uris));
  attempt.retries_left = kLinkMaxRetries;
  attempt.initial_rto = kLinkInitialRto;
  if (target != Address{} && callbacks_.rto_hint) {
    SimDuration hint = callbacks_.rto_hint(target);
    if (hint > 0) {
      attempt.initial_rto =
          std::clamp(hint, kLinkMinRto, kLinkInitialRto);
    }
  }
  attempt.rto = attempt.initial_rto;
  attempt.started = timers_.now();
  if (tracer_.enabled(TraceClass::kProtocol)) {
    attempt.span = tracer_.begin_span(
        timers_.now(), "linking", self_.brief(), "link.attempt",
        {{"target", attempt.target.brief()},
         {"ctype", to_string(attempt.type)},
         {"token", unsigned(token)},
         {"uris", int(attempt.uris.size())}});
  }
  auto [it, inserted] = attempts_.emplace(token, std::move(attempt));
  send_request(it->second);
}

void LinkingEngine::trace_attempt(const Attempt& attempt, const char* event) {
  if (!tracer_.enabled(TraceClass::kProtocol)) return;
  tracer_.event(timers_.now(), "linking", self_.brief(), event,
                {{"target", attempt.target.brief()},
                 {"uri", attempt.uris[attempt.uri_index].to_string()},
                 {"uri_index", int(attempt.uri_index)},
                 {"rto_ms", to_millis(attempt.rto)},
                 {"retries_left", attempt.retries_left},
                 {"restarts", attempt.restarts}},
                attempt.span);
}

void LinkingEngine::send_request(Attempt& attempt) {
  trace_attempt(attempt, "link.tx");
  LinkFrame frame;
  frame.type = LinkType::kRequest;
  frame.sender = self_;
  frame.con_type = attempt.type;
  frame.token = attempt.token;
  frame.uris = edges_.local_uris();
  edges_.send_to(attempt.uris[attempt.uri_index], frame.serialize());
  attempt.clean = attempt.last_send == 0;  // only the very first send
  attempt.last_send = timers_.now();

  std::uint32_t token = attempt.token;
  attempt.timer = timers_.schedule(attempt.rto, [this, token] {
    on_timeout(token);
  });
}

void LinkingEngine::on_timeout(std::uint32_t token) {
  Attempt* attempt = by_token(token);
  if (attempt == nullptr) return;
  if (attempt->retries_left > 0) {
    --attempt->retries_left;
    attempt->rto = static_cast<SimDuration>(
        static_cast<double>(attempt->rto) * kLinkBackoff);
    send_request(*attempt);
    return;
  }
  // This URI is dead; advance to the next one (§IV-D).
  ++attempt->uri_index;
  if (attempt->uri_index < attempt->uris.size()) {
    ++stats_.uri_failovers;
    attempt->retries_left = kLinkMaxRetries;
    attempt->rto = attempt->initial_rto;
    trace_attempt(*attempt, "link.uri_failover");
    send_request(*attempt);
    return;
  }
  // All URIs exhausted.
  ++stats_.failures;
  Address target = attempt->target;
  ConnectionType type = attempt->type;
  if (attempt->span != 0) {
    tracer_.end_span(timers_.now(), "linking", self_.brief(), "link.failed",
                     attempt->span,
                     {{"target", target.brief()},
                      {"reason", "uris_exhausted"},
                      {"elapsed_s",
                       to_seconds(timers_.now() - attempt->started)}});
  }
  finish(token);
  if (callbacks_.on_failed) callbacks_.on_failed(target, type);
}

void LinkingEngine::schedule_restart(Attempt& attempt) {
  attempt.in_restart_wait = true;
  timers_.cancel(attempt.timer);
  ++attempt.restarts;
  if (attempt.restarts > kLinkMaxRestarts) {
    ++stats_.failures;
    Address target = attempt.target;
    ConnectionType type = attempt.type;
    std::uint32_t token = attempt.token;
    if (attempt.span != 0) {
      tracer_.end_span(timers_.now(), "linking", self_.brief(),
                       "link.failed", attempt.span,
                       {{"target", target.brief()},
                        {"reason", "restarts_exhausted"},
                        {"elapsed_s",
                         to_seconds(timers_.now() - attempt.started)}});
    }
    finish(token);
    if (callbacks_.on_failed) callbacks_.on_failed(target, type);
    return;
  }
  SimDuration wait = kLinkRestartBackoff;
  for (int i = 1; i < attempt.restarts; ++i) {
    wait = std::min(wait * 2, kLinkRestartBackoffMax);
  }
  wait += rng_.jitter(wait);  // jitter breaks repeated symmetry
  if (tracer_.enabled()) {
    tracer_.event(timers_.now(), "linking", self_.brief(), "link.restart",
                  {{"target", attempt.target.brief()},
                   {"wait_ms", to_millis(wait)},
                   {"restarts", attempt.restarts}},
                  attempt.span);
  }
  std::uint32_t token = attempt.token;
  attempt.timer = timers_.schedule(wait, [this, token] {
    Attempt* a = by_token(token);
    if (a == nullptr) return;
    // The peer's attempt may have completed while we were waiting.
    if (a->target != Address{} && callbacks_.has_connection(a->target)) {
      finish(token);
      return;
    }
    a->in_restart_wait = false;
    // Resume from the URI that was being tried, not from the top:
    // re-walking the list would re-pay the full dead-URI timeout
    // (≈157 s behind a non-hairpin NAT) after every race abort.
    a->retries_left = kLinkMaxRetries;
    a->rto = a->initial_rto;
    send_request(*a);
  });
}

void LinkingEngine::handle_frame(const LinkFrame& frame,
                                 const net::Endpoint& from) {
  switch (frame.type) {
    case LinkType::kRequest: {
      // Race-break (§IV-B): when both sides have active attempts, the
      // race "must be broken in favor of one peer succeeding while the
      // other fails".  We break it deterministically — the smaller ring
      // address wins — so two peers can never veto each other's attempt
      // exactly when it reaches a working URI (a livelock that
      // otherwise stretches NATed same-domain linking to tens of
      // minutes).  An attempt parked in restart-wait never vetoes.
      Attempt* ours = by_target(frame.sender);
      if (ours != nullptr && !ours->in_restart_wait) {
        if (self_ < frame.sender) {
          // We win: tell the peer to stand down; our attempt proceeds.
          // The peer's request just arrived from `from`, so that
          // endpoint demonstrably works in our direction too (the hole
          // is punched) — retarget the attempt to it instead of
          // grinding through dead URIs with 157 s timeouts.
          transport::Uri seen{transport::TransportKind::kUdp, from};
          if (ours->uris[ours->uri_index] != seen) {
            ours->uris.insert(
                ours->uris.begin() +
                    static_cast<std::ptrdiff_t>(ours->uri_index),
                seen);
            ours->retries_left = kLinkMaxRetries;
            ours->rto = ours->initial_rto;
            timers_.cancel(ours->timer);
            send_request(*ours);
          }
          LinkFrame err;
          err.type = LinkType::kError;
          err.sender = self_;
          err.con_type = frame.con_type;
          err.token = frame.token;
          edges_.send_to(from, err.serialize());
          ++stats_.race_errors_sent;
          if (tracer_.enabled(TraceClass::kProtocol)) {
            tracer_.event(timers_.now(), "linking", self_.brief(),
                          "link.race_veto",
                          {{"peer", frame.sender.brief()}}, ours->span);
          }
          return;
        }
        // We yield: abandon our attempt and answer the request below.
        ++stats_.race_aborts;
        if (ours->span != 0) {
          tracer_.end_span(timers_.now(), "linking", self_.brief(),
                           "link.race_abort", ours->span,
                           {{"peer", frame.sender.brief()},
                            {"elapsed_s",
                             to_seconds(timers_.now() - ours->started)}});
        }
        finish(ours->token);
      }
      // Accept: record the connection and confirm.  Always report
      // upward, even for a peer we already know: the request may come
      // from a NEW physical endpoint (the peer's VM migrated or its NAT
      // renumbered, §V-E) and the stored remote must follow it —
      // otherwise we keep forwarding into a dead address forever.
      if (!callbacks_.has_connection(frame.sender)) {
        ++stats_.established_passive;
      }
      LinkFrame reply;
      reply.type = LinkType::kReply;
      reply.sender = self_;
      reply.con_type = frame.con_type;
      reply.token = frame.token;
      reply.observed = from;
      reply.uris = edges_.local_uris();
      edges_.send_to(from, reply.serialize());
      callbacks_.on_established(frame.sender, frame.uris, from,
                                frame.con_type);
      return;
    }

    case LinkType::kReply: {
      Attempt* attempt = by_token(frame.token);
      if (attempt == nullptr) return;  // late duplicate
      if (defenses_) {
        // Identity check (DESIGN §16): a targeted attempt must be
        // answered by the identity it targets — a forged reply with a
        // guessed token would otherwise install a phantom under the
        // forger's chosen address.  Zero-target bootstrap probes learn
        // the peer's identity FROM the reply, so the only thing we can
        // pin is the endpoint we probed.
        bool forged =
            attempt->target != Address{}
                ? frame.sender != attempt->target
                : from != attempt->uris[attempt->uri_index].endpoint;
        if (forged) {
          ++stats_.replies_rejected;
          if (tracer_.enabled(TraceClass::kProtocol)) {
            tracer_.event(timers_.now(), "linking", self_.brief(),
                          "link.reply_forged",
                          {{"claimed", frame.sender.brief()},
                           {"expected", attempt->target.brief()},
                           {"from", from.to_string()}},
                          attempt->span);
          }
          if (callbacks_.reply_rejected) callbacks_.reply_rejected(from);
          return;  // attempt stays live; the real reply may still land
        }
      }
      // We learn our NAT-assigned public endpoint from the reply.
      if (callbacks_.on_observed_uri && !frame.observed.ip.is_zero()) {
        callbacks_.on_observed_uri(
            transport::Uri{transport::TransportKind::kUdp, frame.observed});
      }
      ++stats_.established_active;
      if (attempt->clean && callbacks_.on_rtt_sample) {
        callbacks_.on_rtt_sample(frame.sender,
                                 timers_.now() - attempt->last_send);
      }
      net::Endpoint remote = attempt->uris[attempt->uri_index].endpoint;
      ConnectionType type = attempt->type;
      if (attempt->span != 0) {
        tracer_.end_span(
            timers_.now(), "linking", self_.brief(), "link.established",
            attempt->span,
            {{"peer", frame.sender.brief()},
             {"uri", attempt->uris[attempt->uri_index].to_string()},
             {"elapsed_s", to_seconds(timers_.now() - attempt->started)}});
      }
      finish(frame.token);
      callbacks_.on_established(frame.sender, frame.uris, remote, type);
      return;
    }

    case LinkType::kError: {
      Attempt* attempt = by_token(frame.token);
      if (attempt == nullptr) {
        // The error may reference the peer's view; match by sender.
        attempt = by_target(frame.sender);
      }
      if (attempt == nullptr || attempt->in_restart_wait) return;
      ++stats_.race_aborts;
      if (tracer_.enabled(TraceClass::kProtocol)) {
        tracer_.event(timers_.now(), "linking", self_.brief(),
                      "link.race_error",
                      {{"peer", frame.sender.brief()}}, attempt->span);
      }
      schedule_restart(*attempt);
      return;
    }

    case LinkType::kPing:
    case LinkType::kPong:
    case LinkType::kClose:
      // Keepalive and teardown are the Node's responsibility.
      return;
  }
}

bool LinkingEngine::attempting(const Address& target) const {
  for (const auto& [token, attempt] : attempts_) {
    if (attempt.target == target) return true;
  }
  return false;
}

LinkingEngine::Attempt* LinkingEngine::by_token(std::uint32_t token) {
  auto it = attempts_.find(token);
  return it == attempts_.end() ? nullptr : &it->second;
}

LinkingEngine::Attempt* LinkingEngine::by_target(const Address& target) {
  if (target == Address{}) return nullptr;
  for (auto& [token, attempt] : attempts_) {
    if (attempt.target == target) return &attempt;
  }
  return nullptr;
}

void LinkingEngine::finish(std::uint32_t token) {
  auto it = attempts_.find(token);
  if (it == attempts_.end()) return;
  timers_.cancel(it->second.timer);
  attempts_.erase(it);
}

void LinkingEngine::abort_all() {
  for (auto& [token, attempt] : attempts_) timers_.cancel(attempt.timer);
  attempts_.clear();
}

}  // namespace wow::p2p
