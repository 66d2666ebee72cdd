#include "common/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace wow {

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kStart: return "node.start";
    case FlightKind::kStop: return "node.stop";
    case FlightKind::kRoutable: return "node.routable";
    case FlightKind::kConnAdded: return "conn.added";
    case FlightKind::kConnLost: return "conn.lost";
    case FlightKind::kCtmSent: return "ctm.sent";
    case FlightKind::kCtmTimeout: return "ctm.timeout";
    case FlightKind::kQuarantine: return "quarantine";
    case FlightKind::kRelayUp: return "relay.up";
    case FlightKind::kRelayUpgraded: return "relay.upgraded";
    case FlightKind::kRelayProbeFail: return "relay.probe_fail";
    case FlightKind::kFrameDeliver: return "frame.deliver";
    case FlightKind::kFrameDrop: return "frame.drop";
    case FlightKind::kBootstrapProbe: return "bootstrap.probe";
    case FlightKind::kEndpointDown: return "bootstrap.endpoint_down";
    case FlightKind::kCacheRejoin: return "bootstrap.cache_rejoin";
    case FlightKind::kMergeStart: return "merge.start";
    case FlightKind::kMergeDone: return "merge.done";
    case FlightKind::kCensusDone: return "census.done";
    case FlightKind::kMisbehavior: return "defense.misbehavior";
    case FlightKind::kRateShed: return "defense.rate_shed";
    case FlightKind::kReplayHit: return "defense.replay_hit";
    case FlightKind::kForgedRelay: return "defense.forged_relay";
    case FlightKind::kCount: break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {}

void FlightRecorder::record(SimTime t, FlightKind kind,
                            std::string_view peer, std::int32_t a,
                            std::int32_t b) {
  if (ring_.empty()) return;
  Entry& e = ring_[next_];
  e.t = t;
  e.kind = kind;
  std::size_t n = std::min(peer.size(), sizeof e.peer - 1);
  // An empty view may carry a null data(), which memcpy must not see.
  if (n > 0) std::memcpy(e.peer, peer.data(), n);
  e.peer[n] = '\0';
  e.a = a;
  e.b = b;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::size_t FlightRecorder::size() const {
  return std::min<std::uint64_t>(recorded_, ring_.size());
}

std::string FlightRecorder::dump(std::string_view label) const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "flight[%.*s]: %zu/%zu entries (%llu recorded)\n",
                static_cast<int>(label.size()), label.data(), size(),
                capacity(),
                static_cast<unsigned long long>(recorded_));
  out += line;
  for_each([&](const Entry& e) {
    std::snprintf(line, sizeof line,
                  "  t=%.3fs %-16s peer=%-8s a=%d b=%d\n", to_seconds(e.t),
                  to_string(e.kind), e.peer[0] != '\0' ? e.peer : "-", e.a,
                  e.b);
    out += line;
  });
  return out;
}

}  // namespace wow
