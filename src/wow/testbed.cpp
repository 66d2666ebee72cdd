#include "wow/testbed.h"

#include <cstdio>

namespace wow {

namespace {

/// One-way site latencies (ms), loosely matching US geography between
/// the paper's sites: UFL (Gainesville), NWU (Evanston), LSU (Baton
/// Rouge), ncgrid (North Carolina), VIMS (Virginia), gru.net (a
/// Gainesville home).  Calibrated so the direct UFL-NWU virtual-network
/// RTT lands near the paper's 38 ms (Fig. 4 regime 3).
constexpr double kUflNwu = 17.0;
constexpr double kUflLsu = 11.0;
constexpr double kUflNcgrid = 9.0;
constexpr double kUflVims = 10.0;
constexpr double kUflGru = 2.0;

/// IPOP user-level per-packet processing on VM/compute hosts.
constexpr SimDuration kVmProcService = 700 * kMicrosecond;
/// Loaded PlanetLab hosts: deterministic service + exponential extra,
/// and a small overload drop probability.
constexpr SimDuration kPlProcService = 3500 * kMicrosecond;
constexpr SimDuration kPlProcExtra = 3 * kMillisecond;
constexpr double kPlOverloadDrop = 0.001;
/// Simultaneous shortcuts per testbed node.
constexpr int kMaxShortcuts = 40;

[[nodiscard]] net::LinkModel wan(double oneway_ms) {
  // 0.05% per traversal: enough residual WAN loss to exercise
  // retransmission without strangling Reno at 35 ms RTT (the paper's
  // direct UFL-NWU TCP sustains ~1.25 MB/s, Table II).  Jitter is kept
  // tiny: real links deliver FIFO, and large independent per-packet
  // jitter would fabricate reordering that dup-ACK logic punishes.
  return net::LinkModel{from_millis(oneway_ms), from_millis(oneway_ms / 100),
                        0.0005};
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : sim_(config.seed), config_(config) {
  network_ = std::make_unique<net::Network>(sim_);
  net::Network& net = *network_;

  net.set_lan(net::LinkModel{250 * kMicrosecond, 40 * kMicrosecond, 0.0});
  net.set_same_site(net::LinkModel{1 * kMillisecond, 150 * kMicrosecond, 0.0});
  net.set_default_wan(wan(25.0));

  site_ufl = net.add_site("ufl.edu");
  site_nwu = net.add_site("northwestern.edu");
  site_lsu = net.add_site("lsu.edu");
  site_ncgrid = net.add_site("ncgrid.org");
  site_vims = net.add_site("vims.edu");
  site_gru = net.add_site("gru.net");

  net.set_site_link(site_ufl, site_nwu, wan(kUflNwu));
  net.set_site_link(site_ufl, site_lsu, wan(kUflLsu));
  net.set_site_link(site_ufl, site_ncgrid, wan(kUflNcgrid));
  net.set_site_link(site_ufl, site_vims, wan(kUflVims));
  net.set_site_link(site_ufl, site_gru, wan(kUflGru));

  // --- PlanetLab routers: public, shared, loaded hosts -------------------
  std::vector<net::SiteId> pl_sites;
  for (int s = 0; s < 10; ++s) {
    pl_sites.push_back(net.add_site("planetlab"));
  }
  std::vector<net::Host*> pl_hosts;
  for (int h = 0; h < config_.planetlab_hosts; ++h) {
    net::Host::Config hc;
    hc.proc_service = kPlProcService;
    hc.proc_extra_mean = kPlProcExtra;
    hc.overload_drop = kPlOverloadDrop;
    // A loaded PlanetLab router's user-level socket buffer: roughly a
    // dozen tunnelled packets of headroom before tail drop.
    hc.proc_queue_limit = 150 * kMillisecond;
    auto ip = net::Ipv4Addr(140, 100, static_cast<std::uint8_t>(h / 250),
                            static_cast<std::uint8_t>(1 + h % 250));
    pl_hosts.push_back(&net.add_host(
        ip, net::Network::kInternet,
        pl_sites[static_cast<std::size_t>(h) % pl_sites.size()], hc));
  }

  p2p::NodeConfig router_base = base_node_config();
  router_base.shortcut.enabled = false;  // routers never originate traffic
  for (int r = 0; r < config_.planetlab_routers; ++r) {
    net::Host& host = *pl_hosts[static_cast<std::size_t>(r) %
                                pl_hosts.size()];
    p2p::NodeConfig cfg = router_base;
    cfg.port = static_cast<std::uint16_t>(
        17000 + r / static_cast<int>(pl_hosts.size()));
    if (r > 0) cfg.bootstrap = bootstrap_;
    routers_.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim_, net, host), cfg));
    if (r < 5) {
      bootstrap_.push_back(transport::Uri{
          transport::TransportKind::kUdp, net::Endpoint{host.ip(), cfg.port}});
    }
  }

  // --- compute domains (Figure 1) -----------------------------------------
  // UFL: campus NAT without hairpin translation (§V-B) — the cause of
  // the slow UFL-UFL shortcut setup.
  net::NatBox::Config ufl_nat;
  ufl_nat.type = net::NatType::kPortRestricted;
  ufl_nat.hairpin = false;
  dom_ufl = net.add_nat_domain(net::Network::kInternet, site_ufl,
                               net::Ipv4Addr(128, 227, 1, 1), ufl_nat);

  // NWU: VMware-NAT-style behaviour with hairpin support.
  net::NatBox::Config nwu_nat;
  nwu_nat.type = net::NatType::kPortRestricted;
  nwu_nat.hairpin = true;
  dom_nwu = net.add_nat_domain(net::Network::kInternet, site_nwu,
                               net::Ipv4Addr(129, 105, 1, 1), nwu_nat);

  net::NatBox::Config lsu_nat;
  lsu_nat.hairpin = true;
  dom_lsu = net.add_nat_domain(net::Network::kInternet, site_lsu,
                               net::Ipv4Addr(130, 39, 1, 1), lsu_nat);

  // ncgrid: firewall with a single open UDP port range for IPOP.
  net::NatBox::Config nc_nat;
  nc_nat.type = net::NatType::kFullCone;
  nc_nat.port_base = 30000;
  nc_nat.open_external_ports = {30000, 30001, 30002, 30003};
  dom_ncgrid = net.add_nat_domain(net::Network::kInternet, site_ncgrid,
                                  net::Ipv4Addr(152, 2, 1, 1), nc_nat);

  net::NatBox::Config vims_nat;
  dom_vims = net.add_nat_domain(net::Network::kInternet, site_vims,
                                net::Ipv4Addr(139, 70, 1, 1), vims_nat);

  // gru.net home node: ISP NAT > wireless router NAT > VMware NAT.
  net::DomainId dom_isp =
      net.add_nat_domain(net::Network::kInternet, site_gru,
                         net::Ipv4Addr(66, 20, 1, 1), net::NatBox::Config{});
  net::DomainId dom_router =
      net.add_nat_domain(dom_isp, site_gru, net::Ipv4Addr(192, 168, 0, 1),
                         net::NatBox::Config{});
  net::NatBox::Config vmware_nat;
  vmware_nat.hairpin = true;
  dom_gru_vm = net.add_nat_domain(dom_router, site_gru,
                                  net::Ipv4Addr(192, 168, 1, 2), vmware_nat);

  // --- compute nodes per Table I ------------------------------------------
  auto vip = [](int i) {
    return net::Ipv4Addr(172, 16, 1, static_cast<std::uint8_t>(i));
  };
  auto phys = [](int subnet, int i) {
    return net::Ipv4Addr(10, static_cast<std::uint8_t>(subnet), 1,
                         static_cast<std::uint8_t>(i));
  };
  char name[16];
  for (int i = 2; i <= 16; ++i) {  // UFL: Xeon 2.4 GHz (reference speed)
    std::snprintf(name, sizeof name, "node%03d", i);
    compute_.push_back(build_compute(name, i, 1.0, dom_ufl, site_ufl,
                                     phys(1, i), vip(i)));
  }
  for (int i = 17; i <= 29; ++i) {  // NWU: Xeon 2.0 GHz
    std::snprintf(name, sizeof name, "node%03d", i);
    compute_.push_back(build_compute(name, i, 0.83, dom_nwu, site_nwu,
                                     phys(2, i), vip(i)));
  }
  for (int i = 30; i <= 31; ++i) {  // LSU: Xeon 3.2 GHz
    std::snprintf(name, sizeof name, "node%03d", i);
    compute_.push_back(build_compute(name, i, 1.33, dom_lsu, site_lsu,
                                     phys(3, i), vip(i)));
  }
  compute_.push_back(build_compute("node032", 32, 0.45, dom_ncgrid,
                                   site_ncgrid, phys(4, 32), vip(32)));
  compute_.push_back(build_compute("node033", 33, 1.33, dom_vims, site_vims,
                                   phys(5, 33), vip(33)));
  compute_.push_back(build_compute("node034", 34, 0.49, dom_gru_vm, site_gru,
                                   phys(6, 34), vip(34)));

  // --- testbed-level aggregates -------------------------------------------
  MetricLabels labels{"", "testbed"};
  auto gauge = [&](const char* name, std::function<double()> fn) {
    metric_ids_.push_back(sim_.metrics().add_callback(
        MetricKind::kGauge, name, labels, std::move(fn)));
  };
  gauge("testbed_routers",
        [this] { return static_cast<double>(routers_.size()); });
  gauge("testbed_compute_nodes",
        [this] { return static_cast<double>(compute_.size()); });
  gauge("testbed_routable_compute",
        [this] { return static_cast<double>(routable_compute_nodes()); });
  gauge("testbed_routable_routers", [this] {
    int count = 0;
    for (const auto& r : routers_) {
      if (r->routable()) ++count;
    }
    return static_cast<double>(count);
  });
}

Testbed::~Testbed() {
  for (MetricId id : metric_ids_) sim_.metrics().remove(id);
  if (trace_sink_) sim_.trace().detach();
}

bool Testbed::attach_trace(const std::string& path) {
  auto sink = std::make_unique<FileTraceSink>(path);
  if (!sink->ok()) return false;
  trace_sink_ = std::move(sink);
  sim_.trace().attach(trace_sink_.get());
  return true;
}

bool Testbed::write_metrics_report(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = sim_.metrics().to_json();
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  bool closed = std::fclose(f) == 0;
  return written == json.size() && closed;
}

p2p::NodeConfig Testbed::base_node_config() const {
  p2p::NodeConfig cfg;
  cfg.far_target = config_.far_target;
  cfg.public_uri_first = config_.public_uri_first;
  cfg.shortcut.enabled = config_.shortcuts_enabled;
  cfg.shortcut.threshold = config_.shortcut_threshold;
  cfg.shortcut.service_rate = config_.shortcut_service_rate;
  cfg.shortcut.max_shortcuts = kMaxShortcuts;
  return cfg;
}

Testbed::ComputeNode Testbed::build_compute(
    const std::string& name, int index, double cpu_speed,
    net::DomainId domain, net::SiteId site, net::Ipv4Addr phys_ip,
    net::Ipv4Addr vip) {
  net::Host::Config hc;
  hc.proc_service = kVmProcService;
  net::Host& host = network_->add_host(phys_ip, domain, site, hc);

  ComputeNode node;
  node.name = name;
  node.index = index;
  node.cpu_speed = cpu_speed;
  node.host = &host;

  ipop::IpopNode::Config icfg;
  icfg.vip = vip;
  icfg.p2p = base_node_config();
  icfg.p2p.port = 17000;
  icfg.p2p.bootstrap = bootstrap_;
  node.ipop = std::make_unique<ipop::IpopNode>(
      p2p::NodeDeps::sim(sim_, *network_, host), icfg);
  node.tcp = std::make_unique<vtcp::TcpStack>(sim_, *node.ipop);
  node.icmp = std::make_unique<ipop::IcmpService>(*node.ipop);
  node.cpu = std::make_unique<mw::CpuExecutor>(sim_, cpu_speed);
  return node;
}

void Testbed::start_routers() {
  // Stagger the joins: the deployed bootstrap overlay grew over time,
  // not as one simultaneous 118-node burst.  Mass simultaneous joins
  // can weave interleaved successor chains that take a long time to
  // merge; a ramped join keeps the ring consistent throughout.
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    p2p::Node* node = routers_[i].get();
    SimDuration base = static_cast<SimDuration>(i) * 2 * kSecond;
    sim_.schedule(base + sim_.rng().jitter(2 * kSecond),
                  [node] { node->start(); });
  }
}

void Testbed::start_compute() {
  for (auto& n : compute_) n.ipop->start();
}

void Testbed::start_all(SimDuration router_settle) {
  start_routers();
  sim_.run_for(router_settle);
  start_compute();
}

Testbed::ComputeNode& Testbed::node(int paper_index) {
  for (auto& n : compute_) {
    if (n.index == paper_index) return n;
  }
  std::abort();  // programmer error: indices are 2..34
}

int Testbed::routable_compute_nodes() const {
  int count = 0;
  for (const auto& n : compute_) {
    if (n.ipop->p2p().routable()) ++count;
  }
  return count;
}

Testbed::ComputeNode Testbed::make_extra_node(bool at_ufl,
                                              net::Ipv4Addr vip) {
  ++extra_ip_counter_;
  auto phys = net::Ipv4Addr(10, 9, 1, static_cast<std::uint8_t>(
                                          1 + extra_ip_counter_ % 250));
  std::string name = "extra";
  name += std::to_string(extra_ip_counter_);
  return build_compute(name, 99, at_ufl ? 1.0 : 0.83,
                       at_ufl ? dom_ufl : dom_nwu,
                       at_ufl ? site_ufl : site_nwu, phys, vip);
}

void Testbed::migrate(ComputeNode& node, bool to_ufl,
                      SimDuration suspend_time, double new_cpu_speed) {
  // Suspend: the IPOP process dies with the VM's physical presence.
  node.ipop->stop();
  ++extra_ip_counter_;
  net::Ipv4Addr new_ip(10, to_ufl ? 1 : 2, 9,
                       static_cast<std::uint8_t>(1 + extra_ip_counter_ % 250));
  network_->move_host(*node.host, to_ufl ? dom_ufl : dom_nwu, new_ip);
  node.cpu->set_speed(new_cpu_speed);
  node.cpu_speed = new_cpu_speed;
  // Resume after the copy latency: restart IPOP, same virtual IP.
  sim_.schedule(suspend_time, [&node] { node.ipop->restart(); });
}

}  // namespace wow
