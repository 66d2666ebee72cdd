#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace wow {

/// What a flight-recorder entry describes.  One enumerator per protocol
/// transition worth having in a post-mortem; the two generic args are
/// per-kind (documented at the recording site, rendered by to_string).
enum class FlightKind : std::uint8_t {
  kStart = 0,        // node started (a: port)
  kStop,             // node stopped (a: connections held)
  kRoutable,         // both ring sides covered (a: connections held)
  kConnAdded,        // peer = who, a: ConnectionType
  kConnLost,         // peer = who, a: ConnectionType, b: DisconnectCause
  kCtmSent,          // peer = target, a: ConnectionType
  kCtmTimeout,       // peer = target, a: ConnectionType
  kQuarantine,       // peer = who, a: episode level, b: duration seconds
  kRelayUp,          // tunnel established, peer = who
  kRelayUpgraded,    // tunnel replaced by direct link, peer = who
  kRelayProbeFail,   // upgrade probe exhausted URIs, peer = who
  kFrameDeliver,     // data frame consumed, peer = src, a: hops
  kFrameDrop,        // frame dropped, peer = dst, a: hops, b: reason tag
  kBootstrapProbe,   // bootstrap endpoint probed, a: endpoint index
  kEndpointDown,     // probe failed, a: endpoint index, b: backoff secs
  kCacheRejoin,      // rejoined via cached peer, peer = who
  kMergeStart,       // foreign ring segment found, peer = census origin
  kMergeDone,        // merge link established, peer = census origin
  kCensusDone,       // census returned to origin, a: measured ring size
  kMisbehavior,      // ledger threshold crossed, peer = who (if held),
                     // a: evidence weight of the final note
  kRateShed,         // control frame shed by the token bucket
  kReplayHit,        // replayed CTM caught, peer = claimed src
  kForgedRelay,      // relay frame failed sanity checks, peer = claimed
                     // src, a: reject reason tag
  kCount,            // sentinel, keep last
};

[[nodiscard]] const char* to_string(FlightKind kind);

/// Bounded per-node ring buffer of recent protocol events — the "black
/// box" a crashed airliner carries.  Always on: entries are fixed-size
/// PODs (no allocation, no formatting) so recording costs a few stores
/// on paths as hot as packet delivery, and memory is capacity * 32 B
/// per node regardless of run length.  When the invariant oracle flags
/// a node, dumping its recorder turns "soak seed 7 failed" into the
/// last N things that node actually did — with no global trace needed.
///
/// Pure observer: never consults the RNG, the clock beyond the caller's
/// timestamp, or the event queue.
class FlightRecorder {
 public:
  struct Entry {
    SimTime t = 0;
    FlightKind kind = FlightKind::kStart;
    /// Peer ring-address brief (8 hex chars) or empty; NUL-terminated.
    char peer[11] = {};
    /// Kind-specific small args (see FlightKind comments).
    std::int32_t a = 0;
    std::int32_t b = 0;
  };

  /// capacity 0 disables recording entirely (record() becomes one
  /// branch) for memory-capped megascale profiles.
  explicit FlightRecorder(std::size_t capacity = 64);

  void record(SimTime t, FlightKind kind, std::string_view peer = {},
              std::int32_t a = 0, std::int32_t b = 0);

  /// Entries currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Heap bytes of the ring buffer (0 when capacity 0 — the megascale
  /// profile).
  [[nodiscard]] std::size_t state_bytes() const {
    return ring_.capacity() * sizeof(Entry);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Entries ever recorded, including those the ring has overwritten.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Oldest -> newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t held = size();
    // Oldest entry sits at the write cursor once the ring has wrapped.
    const std::size_t start = recorded_ > ring_.size() ? next_ : 0;
    for (std::size_t i = 0; i < held; ++i) {
      fn(ring_[(start + i) % ring_.size()]);
    }
  }

  /// Human-readable dump, one line per entry:
  ///   "  t=312.500s conn.lost peer=ab12 a=2 b=0"
  /// `label` prefixes the header line (the owning node's brief).
  [[nodiscard]] std::string dump(std::string_view label) const;

 private:
  std::vector<Entry> ring_;
  std::size_t next_ = 0;       // write cursor
  std::uint64_t recorded_ = 0;
};

}  // namespace wow
