#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "net/addr.h"

namespace wow::net {

class Network;

using HostId = int;
using DomainId = int;
using SiteId = int;

/// Delivered datagram callback: source endpoint *as seen by the
/// receiver* (i.e. post-NAT), destination port, payload.  The payload is
/// passed by value — a ref-counted buffer handle, not a copy — so the
/// receiver can keep (or keep forwarding) the frame without copying it.
using UdpHandler = std::function<void(const Endpoint& src,
                                      std::uint16_t dst_port,
                                      SharedBytes payload)>;

/// A physical machine attached to the simulated network.
///
/// Each host models the three performance effects that matter for the
/// paper's experiments:
///  - uplink/downlink serialization (bytes / rate) with FIFO queueing,
///  - a per-datagram processing station with its own service queue — this
///    is how loaded PlanetLab IPOP routers throttle multi-hop paths to
///    the ~85 KB/s the paper measured (Table II),
///  - an extra random processing delay + drop probability modelling CPU
///    contention on shared hosts.
///
/// Memory layout is flyweight (megascale profile, DESIGN §14): the
/// performance parameters live in a Network-owned pool shared by every
/// host constructed from an equal Config, and port bindings sit in one
/// inline slot (almost every host binds exactly one port) with a heap
/// vector only for the rare multi-port host.
class Host {
 public:
  /// A host's performance parameters.  The owning Network dedupes them
  /// into a shared pool: a testbed declares a handful of host classes,
  /// so a 1M-host fleet shares a handful of entries and each host
  /// stores one pointer instead of its own copy.
  struct Config {
    /// Link rates in bytes/second.
    double uplink_bps = 12.5e6;    // 100 Mbit/s
    double downlink_bps = 12.5e6;  // 100 Mbit/s
    /// Deterministic per-datagram service time of the user-level router
    /// process (busy-server queue).
    SimDuration proc_service = 50 * kMicrosecond;
    /// Mean of an additional exponential processing delay (0 = none);
    /// models scheduling noise on loaded shared hosts.
    SimDuration proc_extra_mean = 0;
    /// Probability an arriving datagram is dropped by the overloaded
    /// host before the application sees it.
    double overload_drop = 0.0;
    /// Tail-drop threshold of the processing station: datagrams arriving
    /// while the backlog exceeds this are dropped (finite socket
    /// buffers).  Without it a saturated router inflates RTT without
    /// bound instead of signalling loss to TCP.
    SimDuration proc_queue_limit = 500 * kMillisecond;

    [[nodiscard]] bool operator==(const Config&) const = default;
  };

  Host(HostId id, Ipv4Addr ip, DomainId domain, SiteId site,
       const Config* config)
      : id_(id), ip_(ip), domain_(domain), site_(site), config_(config) {}

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] Ipv4Addr ip() const { return ip_; }
  [[nodiscard]] DomainId domain() const { return domain_; }
  [[nodiscard]] SiteId site() const { return site_; }
  /// Shared performance parameters (pool-owned, outlives the host).
  [[nodiscard]] const Config& config() const { return *config_; }

  /// Register a handler for datagrams arriving on `port`.  Overwrites any
  /// existing binding (matching the restart-IPOP migration flow).
  void bind(std::uint16_t port, UdpHandler handler) {
    if (!primary_.handler || primary_.port == port) {
      primary_.port = port;
      primary_.handler = std::move(handler);
      return;
    }
    for (Binding& b : extra_) {
      if (b.port == port) {
        b.handler = std::move(handler);
        return;
      }
    }
    extra_.push_back(Binding{port, std::move(handler)});
  }

  void unbind(std::uint16_t port) {
    if (primary_.handler && primary_.port == port) {
      if (extra_.empty()) {
        primary_.handler = nullptr;
        primary_.port = 0;
      } else {
        // Promote an overflow binding so the inline slot stays hot.
        primary_ = std::move(extra_.back());
        extra_.pop_back();
      }
      return;
    }
    for (std::size_t i = 0; i < extra_.size(); ++i) {
      if (extra_[i].port == port) {
        extra_[i] = std::move(extra_.back());
        extra_.pop_back();
        return;
      }
    }
  }

  [[nodiscard]] bool bound(std::uint16_t port) const {
    return handler(port) != nullptr;
  }

  /// Handler lookup on the delivery hot path.  The single-port common
  /// case is one compare against the inline slot — no hashing, no heap
  /// walk (the pre-megascale unordered_map cost a hash + bucket chase
  /// per delivered datagram).
  [[nodiscard]] const UdpHandler* handler(std::uint16_t port) const {
    if (primary_.port == port && primary_.handler) return &primary_.handler;
    for (const Binding& b : extra_) {
      if (b.port == port) return &b.handler;
    }
    return nullptr;
  }

  // --- queueing state, driven by Network ---------------------------------

  /// Time the last bit of a `bytes`-sized datagram leaves the uplink if
  /// the send is issued at `now`; advances the uplink queue.
  [[nodiscard]] SimTime uplink_departure(SimTime now, std::size_t bytes) {
    SimTime start = now > uplink_free_ ? now : uplink_free_;
    uplink_free_ = start + serialization(bytes, config_->uplink_bps);
    return uplink_free_;
  }

  /// Time a datagram arriving at `arrival` is fully received.
  [[nodiscard]] SimTime downlink_done(SimTime arrival, std::size_t bytes) {
    SimTime start = arrival > downlink_free_ ? arrival : downlink_free_;
    downlink_free_ = start + serialization(bytes, config_->downlink_bps);
    return downlink_free_;
  }

  /// Time the router process finishes handling a datagram that became
  /// ready at `ready`.
  [[nodiscard]] SimTime processing_done(SimTime ready, SimDuration extra) {
    SimTime start = ready > proc_free_ ? ready : proc_free_;
    proc_free_ = start + config_->proc_service + extra;
    return proc_free_;
  }

  /// Unprocessed work queued at the processing station as of `now`.
  [[nodiscard]] SimDuration proc_backlog(SimTime now) const {
    return proc_free_ > now ? proc_free_ - now : 0;
  }

  /// Estimated object + heap bytes (bytes/node accounting; the Config
  /// is shared, counted once fleet-wide by the Network).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(Host) + extra_.capacity() * sizeof(Binding);
  }

 private:
  struct Binding {
    std::uint16_t port = 0;
    UdpHandler handler;  // empty function = slot free
  };

  [[nodiscard]] static SimDuration serialization(std::size_t bytes,
                                                 double bps) {
    if (bps <= 0) return 0;
    return static_cast<SimDuration>(static_cast<double>(bytes) /
                                    bps * static_cast<double>(kSecond));
  }

  HostId id_;
  Ipv4Addr ip_;
  DomainId domain_;
  SiteId site_;
  const Config* config_;
  /// Inline fast-path binding (the one port nearly every host binds).
  Binding primary_;
  /// Rare multi-port hosts overflow here; empty vector = no heap.
  std::vector<Binding> extra_;
  SimTime uplink_free_ = 0;
  SimTime downlink_free_ = 0;
  SimTime proc_free_ = 0;
};

}  // namespace wow::net
