#include "p2p/census_agent.h"

#include <algorithm>

#include "common/trace.h"
#include "p2p/node.h"

namespace wow::p2p {

namespace {

/// In-flight merge targets kept at most this many — a census storm in a
/// heavily fragmented overlay converges one bridge at a time instead of
/// spraying link attempts.
constexpr std::size_t kMaxPendingMerges = 8;
/// Hop bound on a census probe.
constexpr std::uint16_t kCensusTtl = 512;

}  // namespace

void CensusAgent::on_start() {
  last_census_ = node_.timers_.now();
  pending_merges_.clear();
}

void CensusAgent::maintain() {
  if (node_.config_.census_interval <= 0) return;
  // A half-joined node has no ring to measure.
  if (!node_.routable()) return;
  const SimTime now = node_.timers_.now();
  if (now - last_census_ < node_.config_.census_interval) return;
  const Connection* succ = node_.table_.right_neighbor();
  if (succ == nullptr || succ->is_relay()) return;  // nothing to walk
  last_census_ = now;
  CensusFrame probe;
  probe.origin = node_.table_.self();
  probe.hops = 0;
  probe.ttl = kCensusTtl;
  probe.origin_uris = node_.edges_->local_uris();
  const Bytes wire = probe.serialize();
  node_.edges_->send_to(succ->remote, wire);
  // Inject a copy through every leaf link: a leaf into a well-known
  // bootstrap endpoint may land in an independently-formed ring, and
  // that is the only path a successor walk can never reach.
  node_.table_.for_each([&](const Connection& c) {
    if (c.is_relay() || c.type != ConnectionType::kLeaf) return;
    if (c.addr == succ->addr) return;
    node_.edges_->send_to(c.remote, wire);
  });
  ++node_.stats_.census_launched;
  if (node_.tracer_.enabled(TraceClass::kProtocol)) {
    node_.tracer_.event(now, "node", node_.trace_node_, "census.launch",
                        {{"ttl", std::to_string(probe.ttl)}});
  }
}

void CensusAgent::handle(const CensusFrame& frame) {
  if (!node_.running_) return;
  const Address& self = node_.table_.self();
  const std::uint16_t hops = static_cast<std::uint16_t>(frame.hops + 1);
  if (frame.origin == self) {
    // Full loop: the walk came home, hops == live ring size.
    const SimTime now = node_.timers_.now();
    ++node_.stats_.census_completed;
    node_.flight_.record(now, FlightKind::kCensusDone, {}, hops);
    if (node_.tracer_.enabled(TraceClass::kProtocol)) {
      node_.tracer_.event(now, "node", node_.trace_node_, "census.done",
                          {{"size", std::to_string(hops)}});
    }
    return;
  }
  std::uint16_t ttl = frame.ttl;
  if (node_.config_.defenses_enabled) {
    // Self-defense (DESIGN §16): never forward on a foreign frame's
    // budget alone — cap the accepted TTL at our OWN census bound so a
    // fabricated census with ttl 0xffff cannot conscript the whole ring
    // into an unbounded walk.
    ttl = std::min(ttl, kCensusTtl);
  }
  if (hops >= ttl) return;  // strayed too far; bound the walk
  const Connection* succ = node_.table_.right_neighbor();
  if (succ == nullptr) return;
  // Merge rule: the origin sits inside our successor arc, so WE should
  // be its predecessor — yet we do not know it.  Two rings formed
  // independently; bridge them.
  const bool origin_in_arc = self.clockwise_distance(frame.origin) <
                             self.clockwise_distance(succ->addr);
  if (origin_in_arc && !node_.table_.contains(frame.origin)) {
    const SimTime now = node_.timers_.now();
    ++node_.stats_.merges_initiated;
    node_.flight_.record(now, FlightKind::kMergeStart, frame.origin.brief(),
                         hops);
    if (node_.tracer_.enabled(TraceClass::kProtocol)) {
      node_.tracer_.event(now, "node", node_.trace_node_,
                          "census.merge_start",
                          {{"origin", frame.origin.brief()},
                           {"hops", std::to_string(hops)}});
    }
    const bool tracked =
        std::find(pending_merges_.begin(), pending_merges_.end(),
                  frame.origin) != pending_merges_.end();
    if (!tracked && pending_merges_.size() < kMaxPendingMerges) {
      pending_merges_.push_back(frame.origin);
    }
    if (!node_.linking_->attempting(frame.origin)) {
      node_.linking_->start(frame.origin, ConnectionType::kStructuredNear,
                            frame.origin_uris);
    }
    return;  // the probe's job is done; the bridge takes it from here
  }
  forward(frame, hops);
}

void CensusAgent::forward(const CensusFrame& frame, std::uint16_t hops) {
  const Connection* succ = node_.table_.right_neighbor();
  if (succ == nullptr || succ->is_relay()) return;
  CensusFrame next = frame;
  next.hops = hops;
  node_.edges_->send_to(succ->remote, next.serialize());
}

void CensusAgent::note_established(const Address& peer) {
  auto it = std::find(pending_merges_.begin(), pending_merges_.end(), peer);
  if (it == pending_merges_.end()) return;
  pending_merges_.erase(it);
  const SimTime now = node_.timers_.now();
  ++node_.stats_.merges_completed;
  node_.flight_.record(now, FlightKind::kMergeDone, peer.brief());
  if (node_.tracer_.enabled(TraceClass::kProtocol)) {
    node_.tracer_.event(now, "node", node_.trace_node_, "census.merge_done",
                        {{"peer", peer.brief()}});
  }
}

}  // namespace wow::p2p
