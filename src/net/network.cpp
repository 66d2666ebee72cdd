#include "net/network.h"

#include <cassert>
#include <utility>

namespace wow::net {

Network::Network(sim::Simulator& simulator)
    : sim_(simulator), faults_(simulator, *this) {
  Domain internet;
  internet.parent = kInternet;
  domains_.push_back(std::move(internet));

  MetricLabels labels{"", "net"};
  auto counter = [&](const std::string& name, const std::uint64_t& field) {
    metric_ids_.push_back(sim_.metrics().add_callback(
        MetricKind::kCounter, name, labels,
        [&field] { return static_cast<double>(field); }));
  };
  counter("net_datagrams_sent", stats_.sent);
  counter("net_datagrams_delivered", stats_.delivered);
  // One counter per drop reason, named after its label; looping over the
  // enum keeps the metric set in lockstep with DropReason.
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    counter(std::string("net_dropped_") +
                to_string(static_cast<DropReason>(i)),
            stats_.dropped[i]);
  }
}

Network::~Network() {
  for (MetricId id : metric_ids_) sim_.metrics().remove(id);
}

const char* to_string(Network::DropReason reason) {
  switch (reason) {
    case Network::DropReason::kLoss: return "loss";
    case Network::DropReason::kUnroutable: return "unroutable";
    case Network::DropReason::kNatFiltered: return "nat_filtered";
    case Network::DropReason::kHairpin: return "hairpin";
    case Network::DropReason::kNoListener: return "no_listener";
    case Network::DropReason::kOverload: return "overload";
    case Network::DropReason::kTtl: return "ttl";
    case Network::DropReason::kPartition: return "partition";
    case Network::DropReason::kLinkDown: return "link_down";
    case Network::DropReason::kHostDown: return "host_down";
    case Network::DropReason::kCorrupted: return "corrupted";
    case Network::DropReason::kCount: break;
  }
  return "unknown";
}

void Network::record_drop(DropReason reason, const Endpoint& src,
                          const Endpoint& dst) {
  ++stats_.dropped[static_cast<std::size_t>(reason)];
  ++drop_seq_;
  // Keyed by the drop ordinal: each drop draws an independent sampling
  // verdict (there is no packet trace id at this layer).
  if (sim_.trace().sample(TraceClass::kPacket, drop_seq_)) {
    sim_.trace().event(sim_.now(), "net", "", "net.drop",
                       {{"reason", to_string(reason)},
                        {"src", src.to_string()},
                        {"dst", dst.to_string()}});
  }
}

SiteId Network::add_site(std::string_view /*name*/) { return sites_++; }

void Network::set_site_link(SiteId a, SiteId b, LinkModel model) {
  if (a > b) std::swap(a, b);
  site_links_[{a, b}] = model;
}

const LinkModel& Network::site_link(SiteId a, SiteId b) const {
  if (a == b) return same_site_;
  if (a > b) std::swap(a, b);
  auto it = site_links_.find({a, b});
  return it == site_links_.end() ? default_wan_ : it->second;
}

SimDuration Network::sample_latency(const LinkModel& m) {
  if (m.jitter_stdev <= 0) return m.latency;
  double v = sim_.rng().normal_min(static_cast<double>(m.latency),
                                   static_cast<double>(m.jitter_stdev),
                                   static_cast<double>(m.latency) / 4.0);
  return static_cast<SimDuration>(v);
}

DomainId Network::add_nat_domain(DomainId parent, SiteId site,
                                 Ipv4Addr wan_ip, NatBox::Config nat_config) {
  Domain d;
  d.parent = parent;
  d.site = site;
  d.nat = std::make_unique<NatBox>(wan_ip, nat_config);
  domains_.push_back(std::move(d));
  auto id = static_cast<DomainId>(domains_.size() - 1);
  domains_[static_cast<std::size_t>(parent)].child_nats_by_wan_ip[wan_ip.value()] = id;
  return id;
}

Host& Network::add_host(Ipv4Addr ip, DomainId domain, SiteId site,
                        const Host::Config& config) {
  auto id = static_cast<HostId>(hosts_.size());
  // Dedupe the config: testbeds declare a handful of host classes, so
  // the linear scan is over a handful of entries.
  const Host::Config* shared = nullptr;
  for (const Host::Config& c : configs_) {
    if (c == config) {
      shared = &c;
      break;
    }
  }
  if (shared == nullptr) {
    configs_.push_back(config);
    shared = &configs_.back();
  }
  hosts_.push_back(std::make_unique<Host>(id, ip, domain, site, shared));
  domains_[static_cast<std::size_t>(domain)].hosts_by_ip[ip.value()] = id;
  if (batched_) host_queues_.resize(hosts_.size());
  return *hosts_.back();
}

NatBox* Network::nat_of_domain(DomainId domain) {
  if (domain < 0 || static_cast<std::size_t>(domain) >= domains_.size()) {
    return nullptr;
  }
  return domains_[static_cast<std::size_t>(domain)].nat.get();
}

void Network::move_host(Host& h, DomainId new_domain, Ipv4Addr new_ip) {
  auto& old_domain = domains_[static_cast<std::size_t>(h.domain())];
  old_domain.hosts_by_ip.erase(h.ip().value());
  auto& target = domains_[static_cast<std::size_t>(new_domain)];
  target.hosts_by_ip[new_ip.value()] = h.id();
  // Reconstruct the host in place with the new placement.  Port bindings
  // are intentionally dropped: migration suspends the VM, so the IPOP
  // process must restart and re-bind on the new network (paper §V-C).
  h = Host(h.id(), new_ip, new_domain, target.site, &h.config());
}

bool Network::wan_faulted(SiteId a, SiteId b, SimTime& t,
                          const Endpoint& src, const Endpoint& dst) {
  if (faults_.partitioned(a, b)) {
    record_drop(DropReason::kPartition, src, dst);
    return true;
  }
  if (faults_.link_down(a, b)) {
    record_drop(DropReason::kLinkDown, src, dst);
    return true;
  }
  t += faults_.wan_extra_latency();
  // Short-circuit keeps the RNG untouched while no storm is active.
  double extra_loss = faults_.wan_extra_loss();
  if (extra_loss > 0.0 && sim_.rng().bernoulli(extra_loss)) {
    record_drop(DropReason::kLoss, src, dst);
    return true;
  }
  return false;
}

void Network::send(Host& from, std::uint16_t src_port, const Endpoint& dst,
                   SharedBytes payload) {
  ++stats_.sent;
  if (faults_.host_blocked(from.id())) {
    record_drop(DropReason::kHostDown, Endpoint{from.ip(), src_port}, dst);
    return;
  }
  SimTime now = sim_.now();
  std::size_t wire_bytes = payload.size() + 28;  // IP + UDP headers

  // Uplink serialization at the physical sender.
  SimTime t = from.uplink_departure(now, wire_bytes);

  DomainId cur_domain = from.domain();
  Endpoint cur_src{from.ip(), src_port};
  Endpoint cur_dst = dst;
  std::set<const NatBox*> ascended;
  SiteId src_site = from.site();

  for (int step = 0; step < kMaxRouteSteps; ++step) {
    Domain& dom = domains_[static_cast<std::size_t>(cur_domain)];

    // 1) Destination host directly in the current domain?
    if (auto it = dom.hosts_by_ip.find(cur_dst.ip.value());
        it != dom.hosts_by_ip.end()) {
      Host& target = *hosts_[static_cast<std::size_t>(it->second)];
      const LinkModel& link = cur_domain == kInternet
                                  ? site_link(src_site, target.site())
                                  : lan_;
      if (cur_domain == kInternet &&
          wan_faulted(src_site, target.site(), t, cur_src, cur_dst)) {
        return;
      }
      if (sim_.rng().bernoulli(link.loss)) {
        record_drop(DropReason::kLoss, cur_src, cur_dst);
        return;
      }
      t += sample_latency(link);
      deliver(target, cur_src, cur_dst.port, std::move(payload), t);
      return;
    }

    // 2) A NAT box whose WAN interface is in the current domain?
    if (auto it = dom.child_nats_by_wan_ip.find(cur_dst.ip.value());
        it != dom.child_nats_by_wan_ip.end()) {
      Domain& inner = domains_[static_cast<std::size_t>(it->second)];
      NatBox& nat = *inner.nat;
      // An isolated domain's uplink is physically cut: nothing descends
      // into it, NAT state notwithstanding.
      if (faults_.domain_isolated(it->second)) {
        record_drop(DropReason::kPartition, cur_src, cur_dst);
        return;
      }
      if (ascended.count(&nat) != 0 && !nat.config().hairpin) {
        record_drop(DropReason::kHairpin, cur_src, cur_dst);
        return;
      }
      const LinkModel& link = cur_domain == kInternet
                                  ? site_link(src_site, inner.site)
                                  : lan_;
      if (cur_domain == kInternet &&
          wan_faulted(src_site, inner.site, t, cur_src, cur_dst)) {
        return;
      }
      if (sim_.rng().bernoulli(link.loss)) {
        record_drop(DropReason::kLoss, cur_src, cur_dst);
        return;
      }
      t += sample_latency(link);
      std::optional<Endpoint> inside =
          nat.translate_inbound(cur_dst, cur_src);
      if (!inside) {
        record_drop(DropReason::kNatFiltered, cur_src, cur_dst);
        return;
      }
      t += kNatHop;
      cur_dst = *inside;
      cur_domain = it->second;
      continue;
    }

    // 3) Ascend through our own NAT toward the Internet.
    if (cur_domain != kInternet) {
      if (faults_.domain_isolated(cur_domain)) {
        record_drop(DropReason::kPartition, cur_src, cur_dst);
        return;
      }
      NatBox& nat = *dom.nat;
      cur_src = nat.translate_outbound(cur_src, cur_dst);
      t += kNatHop;
      ascended.insert(&nat);
      cur_domain = dom.parent;
      continue;
    }

    // 4) In the Internet root and nothing matches: the destination is a
    // private address in some other domain — unroutable.
    record_drop(DropReason::kUnroutable, cur_src, cur_dst);
    return;
  }
  record_drop(DropReason::kTtl, cur_src, cur_dst);
}

void Network::deliver(Host& to, const Endpoint& seen_src,
                      std::uint16_t dst_port, SharedBytes payload,
                      SimTime arrival) {
  if (faults_.host_blocked(to.id())) {
    record_drop(DropReason::kHostDown, seen_src, Endpoint{to.ip(), dst_port});
    return;
  }
  if (faults_.roll_duplicate()) {
    // The duplicate is an independent physical datagram: it shares the
    // payload buffer (copy-on-write) but rolls its own corruption,
    // reordering and queueing below.
    deliver_one(to, seen_src, dst_port, payload, arrival);
  }
  deliver_one(to, seen_src, dst_port, std::move(payload), arrival);
}

void Network::deliver_one(Host& to, const Endpoint& seen_src,
                          std::uint16_t dst_port, SharedBytes payload,
                          SimTime arrival) {
  switch (faults_.roll_corruption()) {
    case FaultInjector::CorruptAction::kNone:
      break;
    case FaultInjector::CorruptAction::kDrop:
      record_drop(DropReason::kCorrupted, seen_src,
                  Endpoint{to.ip(), dst_port});
      return;
    case FaultInjector::CorruptAction::kDeliverCorrupted:
      faults_.corrupt(payload);
      break;
  }
  arrival += faults_.roll_reorder_delay();
  std::size_t wire_bytes = payload.size() + 28;
  SimTime done = to.downlink_done(arrival, wire_bytes);
  if (to.proc_backlog(arrival) > to.config().proc_queue_limit) {
    record_drop(DropReason::kOverload, seen_src, Endpoint{to.ip(), dst_port});
    return;
  }
  if (sim_.rng().bernoulli(to.config().overload_drop)) {
    record_drop(DropReason::kOverload, seen_src, Endpoint{to.ip(), dst_port});
    return;
  }
  SimDuration extra =
      to.config().proc_extra_mean > 0
          ? static_cast<SimDuration>(sim_.rng().exponential(
                static_cast<double>(to.config().proc_extra_mean)))
          : 0;
  done = to.processing_done(done, extra);

  HostId to_id = to.id();
  if (batched_) {
    enqueue_batched(to_id, done, seen_src, dst_port, std::move(payload));
    return;
  }
  // Mutable so the payload handle can be moved into the handler: the
  // receiving node then holds the frame's only reference and can rewrite
  // its forwarding header in place without a copy.
  sim_.schedule_at(done, [this, to_id, seen_src, dst_port,
                          payload = std::move(payload)]() mutable {
    Host& target = *hosts_[static_cast<std::size_t>(to_id)];
    const UdpHandler* handler = target.handler(dst_port);
    if (handler == nullptr) {
      record_drop(DropReason::kNoListener, seen_src,
                  Endpoint{target.ip(), dst_port});
      return;
    }
    ++stats_.delivered;
    (*handler)(seen_src, dst_port, std::move(payload));
  });
}

void Network::enable_batched_delivery(SimDuration quantum) {
  batched_ = true;
  batch_quantum_ = quantum > 0 ? quantum : 0;
  host_queues_.resize(hosts_.size());
}

void Network::enqueue_batched(HostId to_id, SimTime done,
                              const Endpoint& seen_src,
                              std::uint16_t dst_port, SharedBytes payload) {
  if (batch_quantum_ > 0) {
    // Round UP to the quantum grid: bursts coalesce into one drain,
    // nothing ever arrives early, and added latency is < one quantum.
    done = (done + batch_quantum_ - 1) / batch_quantum_ * batch_quantum_;
  }
  HostQueue& hq = host_queues_[static_cast<std::size_t>(to_id)];
  if (hq.head < hq.q.size()) {
    // Per-host completion times are monotone in enqueue order (every
    // queueing station advances via max(arrival, free)); the clamp
    // defends that FIFO invariant against future station changes.
    SimTime last = hq.q.back().due;
    if (done < last) done = last;
  }
  hq.q.push_back(PendingDelivery{done, seen_src, dst_port,
                                 std::move(payload)});
  if (!hq.drain_scheduled) {
    hq.drain_scheduled = true;
    sim_.schedule_at(done, [this, to_id] { drain_host(to_id); });
  }
}

void Network::drain_host(HostId to_id) {
  HostQueue& hq = host_queues_[static_cast<std::size_t>(to_id)];
  Host& target = *hosts_[static_cast<std::size_t>(to_id)];
  SimTime now = sim_.now();
  // Amortized handler lookup: consecutive datagrams almost always hit
  // the same port, so resolve once and reuse while it matches.
  std::uint16_t cached_port = 0;
  const UdpHandler* cached = nullptr;
  // Index loop, not iterators: a handler may send traffic that lands
  // back on this very host, growing (and reallocating) the queue we are
  // draining.
  while (hq.head < hq.q.size() && hq.q[hq.head].due <= now) {
    PendingDelivery entry = std::move(hq.q[hq.head]);
    ++hq.head;
    if (cached == nullptr || entry.dst_port != cached_port) {
      cached_port = entry.dst_port;
      cached = target.handler(cached_port);
    }
    if (cached == nullptr) {
      record_drop(DropReason::kNoListener, entry.seen_src,
                  Endpoint{target.ip(), entry.dst_port});
      continue;
    }
    ++stats_.delivered;
    (*cached)(entry.seen_src, entry.dst_port, std::move(entry.payload));
  }
  if (hq.head < hq.q.size()) {
    sim_.schedule_at(hq.q[hq.head].due, [this, to_id] { drain_host(to_id); });
    return;
  }
  hq.drain_scheduled = false;
  hq.head = 0;
  if (hq.q.capacity() > 16) {
    // A burst inflated the buffer; at 1M hosts idle capacity is real
    // memory, so give it back.
    std::vector<PendingDelivery>().swap(hq.q);
  } else {
    hq.q.clear();
  }
}

std::size_t Network::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& h : hosts_) bytes += h->memory_bytes();
  bytes += configs_.size() * sizeof(Host::Config);
  for (const Domain& d : domains_) {
    bytes += sizeof(Domain);
    // Hash node + bucket estimate per host entry.
    bytes += d.hosts_by_ip.size() * (sizeof(void*) * 2 + 8) +
             d.hosts_by_ip.bucket_count() * sizeof(void*);
    bytes += d.child_nats_by_wan_ip.size() * (sizeof(void*) * 4 + 8);
  }
  for (const HostQueue& hq : host_queues_) {
    bytes += hq.q.capacity() * sizeof(PendingDelivery);
  }
  bytes += host_queues_.capacity() * sizeof(HostQueue);
  return bytes;
}

}  // namespace wow::net
