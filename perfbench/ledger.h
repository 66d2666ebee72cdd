#pragma once

// The traced run's cost ledger.  Spans are recorded from the
// benchmark's side of the public seams — the EdgeFactory and
// TimerService handed to each node, plus direct calls into vtcp and
// IPOP — and every span is charged its self time: its duration minus
// the spans nested inside it.  Nothing under src/ is instrumented.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "p2p/edge.h"
#include "p2p/node.h"
#include "sim/timer_service.h"

namespace wowbench {

using wow::Bytes;
using wow::BytesView;
using wow::SharedBytes;

enum class Span : std::uint8_t {
  kNetSend,        // EdgeFactory::send_to over the simulated fabric
  kTransportSend,  // EdgeFactory::send_to + sendmmsg flush on real UDP
  kForward,        // upcall of a routed data frame this node forwards on
  kDeliver,        // upcall of a routed data frame delivered here
                   // (p2p + ipop + vtcp receive)
  kControl,        // upcall of any other frame: link, CTM, census, ...
  kP2pTimer,       // timer fired through a node's TimerService
  kVtcpTimer,      // timer fired through a vtcp stack's TimerService
  kVtcpSend,       // TcpSocket::send from the benchmark's source app
  kIpopPing,       // IcmpService::ping
  kApp,            // the benchmark's own sink / ping-generator code
  kCount,
};

[[nodiscard]] const char* span_name(Span span);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
  };

  void begin() { stack_.push_back(Frame{now_ns(), 0}); }

  /// Forget everything recorded so far (between phases, outside any
  /// span); captured frames are kept.
  void reset() {
    totals_ = {};
    top_level_ns_ = 0;
    timer_late_us.clear();
  }

  void end(Span span) {
    Frame frame = stack_.back();
    stack_.pop_back();
    std::int64_t duration = now_ns() - frame.start_ns;
    Totals& t = totals_[static_cast<std::size_t>(span)];
    ++t.count;
    t.self_ns += duration - frame.child_ns;
    if (stack_.empty()) {
      top_level_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
  }

  [[nodiscard]] const Totals& operator[](Span span) const {
    return totals_[static_cast<std::size_t>(span)];
  }
  /// Mean self time per span of this kind (0 when none ran).
  [[nodiscard]] double self_ns_per(Span span) const {
    const Totals& t = (*this)[span];
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.self_ns) /
                              static_cast<double>(t.count);
  }
  /// Wall time spent inside outermost spans; the rest of a run is the
  /// driving loop's own time.
  [[nodiscard]] std::int64_t top_level_ns() const { return top_level_ns_; }

  /// A copy of the first routed data frame seen whose payload falls in
  /// the small (<= 128 B) or large (>= 1400 B) class, for codec timing.
  void maybe_capture(const SharedBytes& frame);
  [[nodiscard]] const std::optional<Bytes>& small_frame() const {
    return small_;
  }
  [[nodiscard]] const std::optional<Bytes>& large_frame() const {
    return large_;
  }

  /// Timer lateness samples (fire time minus deadline, µs) from a
  /// real-clock TimerService.
  std::vector<double> timer_late_us;

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<Totals, static_cast<std::size_t>(Span::kCount)> totals_{};
  std::int64_t top_level_ns_ = 0;
  std::optional<Bytes> small_;
  std::optional<Bytes> large_;
};

/// Run `fn` inside a span when tracing, or bare when `ledger` is null —
/// the untraced runs share the benchmark code but not its clock reads.
template <typename Fn>
void timed(Ledger* ledger, Span span, Fn&& fn) {
  if (ledger == nullptr) {
    fn();
    return;
  }
  ledger->begin();
  fn();
  ledger->end(span);
}

/// TimerService seam wrapper: every callback fires inside a span.  The
/// wrapper draws no randomness and schedules nothing of its own, so a
/// simulator run executes the same events with or without it.
class TracedTimers final : public wow::sim::TimerService {
 public:
  TracedTimers(wow::sim::TimerService& inner, Ledger& ledger, Span span)
      : inner_(inner), ledger_(ledger), span_(span) {}

  /// Record fire-time lateness against the host monotonic clock;
  /// `offset_us` maps inner now() onto now_ns()/1000.
  void record_lateness(std::int64_t offset_us) {
    lateness_ = true;
    offset_us_ = offset_us;
  }

  [[nodiscard]] wow::SimTime now() const override { return inner_.now(); }
  wow::sim::TimerHandle schedule(wow::SimDuration delay,
                                 wow::sim::EventFn fn) override;
  bool cancel(wow::sim::TimerHandle handle) override {
    return inner_.cancel(handle);
  }

 private:
  wow::sim::TimerService& inner_;
  Ledger& ledger_;
  Span span_;
  bool lateness_ = false;
  std::int64_t offset_us_ = 0;
};

/// EdgeFactory seam wrapper.  Sends are timed as `send_span`; each
/// inbound datagram's upcall into the node is timed and classified
/// after the fact — a routed data frame that raised the node's
/// delivered count is a delivery, any other routed data frame a transit
/// hop, everything else control.
class TracedEdges final : public wow::p2p::EdgeFactory {
 public:
  TracedEdges(std::unique_ptr<wow::p2p::EdgeFactory> inner, Ledger& ledger,
              Span send_span);

  /// The node whose counters classify upcalls (set right after the node
  /// is built; the node owns this factory).
  void attach(const wow::p2p::Node& node) { node_ = &node; }

  void bind(std::uint16_t port) override { inner_->bind(port); }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  void send_to(const wow::net::Endpoint& dst, SharedBytes payload) override;
  using wow::p2p::EdgeFactory::send_to;
  [[nodiscard]] wow::p2p::Edge& edge_to(
      const wow::net::Endpoint& remote) override {
    return inner_->edge_to(remote);
  }
  [[nodiscard]] wow::transport::Uri local_uri() const override {
    return inner_->local_uri();
  }
  [[nodiscard]] std::vector<wow::transport::Uri> local_uris() const override {
    return inner_->local_uris();
  }
  bool learn_public_uri(const wow::transport::Uri& uri) override {
    return inner_->learn_public_uri(uri);
  }

 private:
  void upcall(const wow::net::Endpoint& src, SharedBytes payload);

  std::unique_ptr<wow::p2p::EdgeFactory> inner_;
  Ledger& ledger_;
  Span send_span_;
  const wow::p2p::Node* node_ = nullptr;
};

/// Mean ns per RoutedPacket::parse and per wire() on copies of `frame`,
/// each the median of several batches.  Every parse gets a uniquely
/// owned buffer, as on the receive path, so wire() rewrites in place.
struct CodecCost {
  double parse_ns = 0;
  double wire_ns = 0;
};
[[nodiscard]] CodecCost time_codec(const Bytes& frame);

/// A routed data frame with a `payload_bytes` seeded payload (the
/// stand-in when a run carried no frame of that size class).
[[nodiscard]] Bytes synth_data_frame(std::size_t payload_bytes,
                                     std::uint64_t seed);

}  // namespace wowbench
