#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "net/addr.h"
#include "net/faults.h"
#include "net/host.h"
#include "net/nat.h"
#include "sim/simulator.h"

namespace wow::net {

/// Latency/loss model for a path segment.
struct LinkModel {
  SimDuration latency = 0;          // one-way propagation mean
  SimDuration jitter_stdev = 0;     // gaussian jitter, truncated at 0
  double loss = 0.0;                // drop probability per traversal
};

/// The simulated wide-area network: a tree of address domains rooted at
/// the public Internet, with NAT/firewall boxes on the edges.
///
/// Sites model geography: every public host and every NAT's WAN interface
/// sits at a site, and the site-pair latency matrix gives the Internet
/// transit delay.  Hosts inside a private domain are physically at the
/// domain's site.
///
/// Routing walks the domain tree: ascend through NATs (outbound
/// translation), cross the Internet, descend through NATs (inbound
/// translation + filtering).  A packet that ascends and then descends
/// through the same NAT is a hairpin and is only forwarded if that NAT
/// supports hairpin translation — the mechanism behind the paper's slow
/// UFL-UFL linking (Fig. 4).
class Network {
 public:
  static constexpr DomainId kInternet = 0;
  static constexpr int kMaxRouteSteps = 16;
  /// Latency added per NAT box traversal.
  static constexpr SimDuration kNatHop = 100 * kMicrosecond;

  /// Reasons a datagram can die inside the fabric.  Every value has a
  /// to_string label, a Stats counter and a `net_dropped_<label>` counter
  /// (registered in a loop over the enum, so the three can't drift).
  enum class DropReason {
    kLoss,
    kUnroutable,
    kNatFiltered,
    kHairpin,
    kNoListener,
    kOverload,
    kTtl,
    kPartition,  // active partition/isolation separates src and dst
    kLinkDown,   // active link flap took the site-pair path down
    kHostDown,   // endpoint host is crashed or frozen
    kCorrupted,  // in-flight corruption caught by the UDP checksum
    kCount,      // sentinel: number of reasons, not a reason
  };
  static constexpr std::size_t kDropReasonCount =
      static_cast<std::size_t>(DropReason::kCount);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    /// Indexed by DropReason; use drops() for readable access.
    std::array<std::uint64_t, kDropReasonCount> dropped{};

    [[nodiscard]] std::uint64_t drops(DropReason reason) const {
      return dropped[static_cast<std::size_t>(reason)];
    }
  };

  explicit Network(sim::Simulator& simulator);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology construction --------------------------------------------

  /// Add a site (a geographic location).  Returns its id.  The name is
  /// for the caller's reading only; nothing stores it.
  SiteId add_site(std::string_view name);

  /// One-way latency/loss between two sites (symmetric).
  void set_site_link(SiteId a, SiteId b, LinkModel model);
  /// Fallback model for site pairs without an explicit entry.
  void set_default_wan(LinkModel model) { default_wan_ = model; }
  /// Model for hops inside one private domain (LAN).
  void set_lan(LinkModel model) { lan_ = model; }

  /// Create a private domain behind a new NAT box.  The NAT's WAN
  /// interface gets address `wan_ip` inside `parent` (usually the
  /// Internet) at `site`.  Returns the new domain's id.
  DomainId add_nat_domain(DomainId parent, SiteId site, Ipv4Addr wan_ip,
                          NatBox::Config nat_config);

  /// Create a host.  For public hosts pass domain = kInternet.  The
  /// config is deduplicated into a shared pool (flyweight — see Host).
  Host& add_host(Ipv4Addr ip, DomainId domain, SiteId site,
                 const Host::Config& config);

  // --- data plane ---------------------------------------------------------

  /// Send a UDP datagram.  Fire-and-forget: translation, transit, loss
  /// and queueing happen inside; delivery (if any) is an event calling
  /// the destination port's handler.  The payload buffer is shared, not
  /// copied, across queueing and delivery.
  void send(Host& from, std::uint16_t src_port, const Endpoint& dst,
            SharedBytes payload);
  void send(Host& from, std::uint16_t src_port, const Endpoint& dst,
            Bytes payload) {
    send(from, src_port, dst, SharedBytes(std::move(payload)));
  }

  // --- lookup / admin -----------------------------------------------------

  [[nodiscard]] Host& host(HostId id) { return *hosts_[static_cast<std::size_t>(id)]; }
  /// The domain's NAT box; nullptr for the Internet and for an id
  /// outside the domain table.
  [[nodiscard]] NatBox* nat_of_domain(DomainId domain);
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// The fault fabric riding on this network's data plane.
  [[nodiscard]] FaultInjector& faults() { return faults_; }

  /// Move a host to another domain/site, releasing its old address and
  /// assigning `new_ip` (VM migration re-homes the physical interface).
  void move_host(Host& h, DomainId new_domain, Ipv4Addr new_ip);

  // --- megascale batched delivery (opt-in) -------------------------------

  /// Switch final-hop delivery to batched per-host processing: instead
  /// of one simulator event per delivered datagram, each host keeps a
  /// FIFO of pending deliveries and one outstanding "drain" event.  A
  /// quantum > 0 additionally rounds completion times UP to the quantum
  /// grid so bursts drain in one event (bounded added latency, never
  /// early).  This changes cross-host delivery interleaving relative to
  /// the default exact path, so it is opt-in for megascale runs; runs
  /// in batched mode remain deterministic among themselves.  Per-host
  /// order is preserved: completion times are monotone in enqueue order
  /// because every queueing station advances via max(arrival, free).
  /// Must be enabled before traffic flows; cannot be turned off again.
  void enable_batched_delivery(SimDuration quantum = 0);

  /// Estimated bytes held by the network fabric itself (hosts, domains,
  /// NAT state, pending delivery queues, the host config pool) — the
  /// non-protocol share of the bytes/node report.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Domain {
    DomainId parent = kInternet;
    SiteId site = 0;
    std::unique_ptr<NatBox> nat;  // null only for the Internet root
    /// Hash map, not a tree: the per-datagram routing walk does one
    /// lookup here per domain level, and at 1M public hosts a red-black
    /// walk is ~20 dependent cache misses per send.  Nothing iterates
    /// this map, so the unordered layout cannot perturb determinism.
    std::unordered_map<std::uint32_t, HostId> hosts_by_ip;
    std::map<std::uint32_t, DomainId> child_nats_by_wan_ip;
  };

  /// One queued final-hop delivery in batched mode (~40 B; the payload
  /// is a ref-counted handle, not a copy).
  struct PendingDelivery {
    SimTime due = 0;
    Endpoint seen_src;
    std::uint16_t dst_port = 0;
    SharedBytes payload;
  };

  /// Per-host delivery FIFO + its single outstanding drain event.
  /// `head` indexes the next undelivered entry; the vector is compacted
  /// only when fully drained so a steady stream never memmoves.
  struct HostQueue {
    std::vector<PendingDelivery> q;
    std::size_t head = 0;
    bool drain_scheduled = false;
  };

  [[nodiscard]] const LinkModel& site_link(SiteId a, SiteId b) const;
  [[nodiscard]] SimDuration sample_latency(const LinkModel& m);
  /// Fault checks for one Internet crossing between sites `a` and `b`:
  /// records the drop and returns true if an active partition or flap
  /// kills the packet (or storm loss does); otherwise adds any storm
  /// latency to `t`.
  [[nodiscard]] bool wan_faulted(SiteId a, SiteId b, SimTime& t,
                                 const Endpoint& src, const Endpoint& dst);
  void deliver(Host& to, const Endpoint& seen_src, std::uint16_t dst_port,
               SharedBytes payload, SimTime arrival);
  /// One physical copy (deliver() may fan out under duplication).
  void deliver_one(Host& to, const Endpoint& seen_src, std::uint16_t dst_port,
                   SharedBytes payload, SimTime arrival);
  /// Batched mode: append to the host's FIFO, arming its drain event if
  /// idle.
  void enqueue_batched(HostId to_id, SimTime done, const Endpoint& seen_src,
                       std::uint16_t dst_port, SharedBytes payload);
  /// Batched mode: deliver every pending datagram now due on `to_id`,
  /// then re-arm for the next due entry (if any).
  void drain_host(HostId to_id);
  /// Single funnel for every drop: bumps the matching Stats field, runs
  /// the diagnostic hook, and emits a "net.drop" trace event.
  void record_drop(DropReason reason, const Endpoint& src,
                   const Endpoint& dst);

  sim::Simulator& sim_;
  std::vector<Domain> domains_;
  std::vector<std::unique_ptr<Host>> hosts_;
  /// Flyweight pool of distinct host configs (deque = stable addresses
  /// for the pointers hosts hold).
  std::deque<Host::Config> configs_;
  /// Batched delivery state; host_queues_ is sized lazily on enable.
  bool batched_ = false;
  SimDuration batch_quantum_ = 0;
  std::vector<HostQueue> host_queues_;
  SiteId sites_ = 0;
  std::map<std::pair<SiteId, SiteId>, LinkModel> site_links_;
  LinkModel default_wan_{30 * kMillisecond, 2 * kMillisecond, 0.001};
  LinkModel lan_{200 * kMicrosecond, 30 * kMicrosecond, 0.0};
  LinkModel same_site_{1 * kMillisecond, 100 * kMicrosecond, 0.0};
  Stats stats_;
  /// Monotonic drop ordinal — the sampling key for net.drop traces.
  std::uint64_t drop_seq_ = 0;
  std::vector<MetricId> metric_ids_;
  FaultInjector faults_;

 public:
  /// Model used when both path ends are at the same site but in
  /// different domains (campus crossing).
  void set_same_site(LinkModel model) { same_site_ = model; }
};

/// Human-readable drop-reason label (used in traces and reports).
[[nodiscard]] const char* to_string(Network::DropReason reason);

}  // namespace wow::net
