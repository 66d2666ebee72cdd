#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "ipop/ip_packet.h"
#include "p2p/node.h"
#include "sim/timer_service.h"

namespace wow::ipop {

/// Deterministic virtual-IP → P2P-address resolution.  Every IPOP node
/// derives the same 160-bit ring address from a virtual IP, so tunnelled
/// packets can be routed with no lookup service — the virtual address
/// space IS the overlay address space.
[[nodiscard]] p2p::Address address_for_vip(net::Ipv4Addr vip);

/// The IPOP virtual network endpoint: picks IP packets from the guest's
/// tap device, tunnels them to the P2P node owning the destination
/// virtual IP, and injects arriving packets back into the guest (§III-B).
///
/// The guest side registers per-protocol handlers (the tap "wire"); the
/// overlay side is a p2p::Node built from whatever NodeDeps bundle the
/// host environment provides — the simulated WAN (NodeDeps::sim) or
/// the real UDP backend the wowd daemon wires up.  Nothing in this
/// layer knows which one it got.
/// stop()/restart() model killing and restarting the user-level
/// IPOP process, the paper's mechanism for surviving VM migration: the
/// virtual IP — and hence the ring address — is preserved, only the
/// physical overlay state is rebuilt (§V-C).
class IpopNode {
 public:
  struct Config {
    net::Ipv4Addr vip;
    p2p::NodeConfig p2p;
  };

  using IpHandler = std::function<void(const IpPacket&)>;

  IpopNode(p2p::NodeDeps deps, Config config);
  ~IpopNode();

  void start() { node_->start(); }
  void stop() { node_->stop(); }
  void stop_gracefully() { node_->stop_gracefully(); }
  void restart() { node_->restart(); }
  [[nodiscard]] bool running() const { return node_->running(); }

  [[nodiscard]] net::Ipv4Addr vip() const { return config_.vip; }
  [[nodiscard]] p2p::Node& p2p() { return *node_; }
  [[nodiscard]] const p2p::Node& p2p() const { return *node_; }

  /// The environment seams this node was built over, re-exposed so the
  /// layers stacked on top (vtcp, ICMP, applications) inherit the same
  /// backend instead of reaching for a simulator.
  [[nodiscard]] sim::TimerService& timers() { return timers_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// Guest → overlay: tunnel one IP packet.  Packets to our own virtual
  /// IP loop back locally (as a real stack would).  The payload is
  /// copied once, into a frame of its own.
  void send_ip(const IpPacket& packet);
  /// The same for a payload already in `frame`, built with at least
  /// IpPacket::kHeadroom bytes of headroom: the IP and routed headers
  /// are written there in place.  `packet` gives the header fields; its
  /// payload view is not read.
  void send_ip(const IpPacket& packet, FrameBuf frame);

  /// Overlay → guest: register the handler for one IP protocol.
  void set_protocol_handler(IpProto proto, IpHandler handler) {
    handlers_[proto] = std::move(handler);
  }

  /// Tunnel counters, one `X(field)` each (common/counters.h).  With
  /// the node's `register_node_metrics` set, each is registered as an
  /// `ipop_<field>` counter.
#define WOW_IPOP_COUNTERS(X)                   \
  X(sent)                                      \
  X(received)                                  \
  /* Dst vip != ours (stale route). */         \
  X(dropped_not_ours)                          \
  X(dropped_no_handler)                        \
  /* Tunnelled bytes not an IpPacket. */       \
  X(parse_rejects)
  struct Stats {
    WOW_COUNTERS(Stats, WOW_IPOP_COUNTERS)
  };
#undef WOW_IPOP_COUNTERS
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_overlay_data(const p2p::Address& src, BytesView payload);

  sim::TimerService& timers_;
  MetricsRegistry& metrics_;
  Config config_;
  std::unique_ptr<p2p::Node> node_;
  std::map<IpProto, IpHandler> handlers_;
  Stats stats_;
  std::vector<MetricId> metric_ids_;
};

}  // namespace wow::ipop
