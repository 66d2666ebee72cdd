#include "ledger.h"

#include <algorithm>

#include "common/rng.h"
#include "p2p/packet.h"
#include "report.h"

namespace wowbench {

using wow::p2p::FrameKind;
using wow::p2p::RoutedPacket;
using wow::p2p::RoutedType;

namespace {

bool is_routed_data(BytesView frame) {
  return frame.size() > RoutedPacket::kHeaderBytes &&
         frame[0] == static_cast<std::uint8_t>(FrameKind::kRouted) &&
         frame[RoutedPacket::kTypeOffset] ==
             static_cast<std::uint8_t>(RoutedType::kData);
}

}  // namespace

const char* span_name(Span span) {
  switch (span) {
    case Span::kNetSend: return "net.send";
    case Span::kTransportSend: return "transport.send";
    case Span::kForward: return "p2p.forward";
    case Span::kDeliver: return "p2p.deliver";
    case Span::kControl: return "p2p.control";
    case Span::kP2pTimer: return "p2p.timer";
    case Span::kVtcpTimer: return "vtcp.timer";
    case Span::kVtcpSend: return "vtcp.send";
    case Span::kIpopPing: return "ipop.ping";
    case Span::kApp: return "app";
    case Span::kCount: break;
  }
  return "?";
}

void Ledger::maybe_capture(const SharedBytes& frame) {
  if (!is_routed_data(frame.view())) return;
  std::size_t payload = frame.size() - RoutedPacket::kHeaderBytes;
  if (payload <= 128 && !small_) small_ = frame.to_bytes();
  if (payload >= 1400 && !large_) large_ = frame.to_bytes();
}

wow::sim::TimerHandle TracedTimers::schedule(wow::SimDuration delay,
                                             wow::sim::EventFn fn) {
  wow::SimTime deadline = inner_.now() + std::max<wow::SimDuration>(delay, 0);
  return inner_.schedule(delay, [this, deadline, fn = std::move(fn)]() mutable {
    if (lateness_) {
      ledger_.timer_late_us.push_back(
          static_cast<double>(now_ns() / 1000 - offset_us_ - deadline));
    }
    ledger_.begin();
    fn();
    ledger_.end(span_);
  });
}

TracedEdges::TracedEdges(std::unique_ptr<wow::p2p::EdgeFactory> inner,
                         Ledger& ledger, Span send_span)
    : inner_(std::move(inner)), ledger_(ledger), send_span_(send_span) {
  inner_->set_receiver(
      [this](const wow::net::Endpoint& src, SharedBytes payload) {
        upcall(src, std::move(payload));
      });
}

void TracedEdges::send_to(const wow::net::Endpoint& dst,
                          SharedBytes payload) {
  ledger_.begin();
  inner_->send_to(dst, std::move(payload));
  ledger_.end(send_span_);
}

void TracedEdges::upcall(const wow::net::Endpoint& src, SharedBytes payload) {
  bool data = is_routed_data(payload.view());
  if (data) ledger_.maybe_capture(payload);
  std::uint64_t delivered = node_->stats().data_delivered;
  ledger_.begin();
  deliver(src, std::move(payload));
  Span span = !data ? Span::kControl
              : node_->stats().data_delivered != delivered ? Span::kDeliver
                                                           : Span::kForward;
  ledger_.end(span);
}

CodecCost time_codec(const Bytes& frame) {
  constexpr int kBatch = 256;
  constexpr int kBatches = 9;
  std::vector<double> parse_ns;
  std::vector<double> wire_ns;
  std::size_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<SharedBytes> copies;
    copies.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) copies.emplace_back(Bytes(frame));
    std::vector<RoutedPacket> packets;
    packets.reserve(kBatch);

    std::int64_t t0 = now_ns();
    for (SharedBytes& c : copies) {
      auto p = RoutedPacket::parse(std::move(c));
      if (p) packets.push_back(std::move(*p));
    }
    std::int64_t t1 = now_ns();
    for (RoutedPacket& p : packets) {
      --p.ttl;
      ++p.hops;
      sink += p.wire().size();
    }
    std::int64_t t2 = now_ns();
    if (packets.size() != kBatch) return {};  // frame does not parse
    parse_ns.push_back(static_cast<double>(t1 - t0) / kBatch);
    wire_ns.push_back(static_cast<double>(t2 - t1) / kBatch);
  }
  if (sink == 0) return {};
  return CodecCost{median(parse_ns), median(wire_ns)};
}

Bytes synth_data_frame(std::size_t payload_bytes, std::uint64_t seed) {
  wow::Rng rng(seed);
  auto ring_id = [&rng] {
    std::array<std::uint32_t, wow::RingId::kLimbs> limbs{};
    for (auto& limb : limbs) {
      limb = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffLL));
    }
    return wow::RingId{limbs};
  };
  RoutedPacket p;
  p.src = ring_id();
  p.dst = ring_id();
  p.type = RoutedType::kData;
  Bytes payload(payload_bytes);
  for (auto& byte : payload) {
    byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  p.set_payload(std::move(payload));
  return p.serialize();
}

}  // namespace wowbench
