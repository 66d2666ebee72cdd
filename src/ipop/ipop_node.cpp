#include "ipop/ipop_node.h"

namespace wow::ipop {

p2p::Address address_for_vip(net::Ipv4Addr vip) {
  // splitmix64 expansion of the 32-bit virtual IP into 160 bits; both
  // ends compute the same ring address with no directory service.
  std::uint64_t x = 0x9e3779b97f4a7c15ull ^ vip.value();
  auto next = [&x] {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::array<std::uint32_t, RingId::kLimbs> limbs{};
  for (auto& limb : limbs) limb = static_cast<std::uint32_t>(next());
  return p2p::Address{limbs};
}

IpopNode::IpopNode(p2p::NodeDeps deps, Config config)
    : timers_(*deps.timers), metrics_(*deps.metrics), config_(config) {
  config_.p2p.address = address_for_vip(config_.vip);
  node_ = std::make_unique<p2p::Node>(std::move(deps), config_.p2p);
  node_->set_data_handler(
      [this](const p2p::Address& src, BytesView payload) {
        on_overlay_data(src, payload);
      });
  if (config_.p2p.register_node_metrics) {
    add_counters(metrics_, "ipop_", MetricLabels{node_->brief(), "ipop"},
                 [this] { return &stats_; }, metric_ids_);
  }
}

IpopNode::~IpopNode() {
  for (MetricId id : metric_ids_) metrics_.remove(id);
}

void IpopNode::send_ip(const IpPacket& packet) {
  send_ip(packet, FrameBuf(IpPacket::kHeadroom, packet.payload));
}

void IpopNode::send_ip(const IpPacket& packet, FrameBuf frame) {
  ++stats_.sent;
  IpPacket header = packet;
  header.src = config_.vip;
  if (!header.push_header(frame)) return;
  if (header.dst == config_.vip) {
    // Loopback: deliver in the next event so callers never reenter.
    timers_.schedule(0, [this, frame = std::move(frame)] {
      on_overlay_data(node_->address(), frame.view());
    });
    return;
  }
  node_->send_data(address_for_vip(header.dst), std::move(frame));
}

void IpopNode::on_overlay_data(const p2p::Address&, BytesView payload) {
  auto packet = IpPacket::parse(payload);
  if (!packet) {
    // Corrupted or truncated tunnel payload: reject cleanly, count it.
    ++stats_.parse_rejects;
    return;
  }
  if (packet->dst != config_.vip) {
    // The overlay delivered a tunnelled packet for someone else (e.g. a
    // stale shortcut after the ring shifted); a tap would not inject it.
    ++stats_.dropped_not_ours;
    return;
  }
  auto it = handlers_.find(packet->proto);
  if (it == handlers_.end()) {
    ++stats_.dropped_no_handler;
    return;
  }
  ++stats_.received;
  it->second(*packet);
}

}  // namespace wow::ipop
