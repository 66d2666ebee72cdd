#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipop/icmp_service.h"
#include "ipop/ipop_node.h"
#include "middleware/cpu.h"
#include "net/network.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "vtcp/tcp.h"

namespace wow {

/// Knobs of the simulated Figure-1 testbed.  Defaults are calibrated so
/// the reproduction lands near the paper's measured regimes (see
/// EXPERIMENTS.md for the calibration notes):
///  - direct UFL-NWU virtual RTT ≈ 38 ms,
///  - multi-hop paths through loaded PlanetLab routers ≈ 150 ms RTT,
///  - a dead URI costs the linking protocol ≈ 157 s (footnote 2),
///  - direct-path TCP ≈ 1.6 MB/s, multi-hop TCP ≈ 85 KB/s (Table II).
struct TestbedConfig {
  std::uint64_t seed = 1;
  bool shortcuts_enabled = true;

  int planetlab_hosts = 20;
  int planetlab_routers = 118;

  /// Structured-far links per node (drives overlay hop counts; 16 far
  /// links on a ~150-node ring gives the ~3-hop paths the paper saw).
  int far_target = 16;

  /// Shortcut policy (§IV-E); threshold/service-rate are the ablation
  /// knobs.
  double shortcut_threshold = 25.0;
  double shortcut_service_rate = 0.5;

  /// Linking URI order (NodeConfig::public_uri_first); false is the
  /// ordering ablation.
  bool public_uri_first = true;
};

/// The WOW testbed of Figure 1: 118 P2P router nodes on 20 loaded
/// PlanetLab hosts, and 33 VM compute nodes across six domains —
/// 15 at UFL (behind a non-hairpin NAT), 13 at NWU (hairpin NAT),
/// 2 at LSU, 1 at ncgrid (single open firewall port), 1 at VIMS, and a
/// home node behind three nested NATs (gru.net).  Compute node `i`
/// (paper numbering 2..34) owns virtual IP 172.16.1.i.
class Testbed {
 public:
  struct ComputeNode {
    std::string name;   // "node002" ... "node034"
    int index = 0;      // paper numbering: 2..34
    double cpu_speed = 1.0;
    net::Host* host = nullptr;
    std::unique_ptr<ipop::IpopNode> ipop;
    std::unique_ptr<vtcp::TcpStack> tcp;
    std::unique_ptr<ipop::IcmpService> icmp;
    std::unique_ptr<mw::CpuExecutor> cpu;

    [[nodiscard]] net::Ipv4Addr vip() const { return ipop->vip(); }
  };

  /// Builds the run's simulator from `config.seed`.
  explicit Testbed(TestbedConfig config);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Start the PlanetLab bootstrap overlay only.
  void start_routers();
  /// Start every compute node (routers must already be running).
  void start_compute();
  /// start_routers + settle + start_compute convenience.  The default
  /// settle covers the ramped router join (2 s per router) plus ring
  /// convergence.
  void start_all(SimDuration router_settle = 6 * kMinute);

  [[nodiscard]] ComputeNode& node(int paper_index);
  [[nodiscard]] std::vector<ComputeNode>& nodes() { return compute_; }
  [[nodiscard]] std::vector<std::unique_ptr<p2p::Node>>& routers() {
    return routers_;
  }

  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// Fraction of compute nodes that are fully routable.
  [[nodiscard]] int routable_compute_nodes() const;

  /// Attach a JSONL trace sink writing to `path`; every overlay event
  /// from now on is recorded (consumed by tools/trace_report).  Returns
  /// false if the file cannot be opened.  The sink is detached and
  /// flushed when the Testbed is destroyed.
  bool attach_trace(const std::string& path);

  /// Write the full metrics registry (simulator, net, transport, node,
  /// linking, testbed) as a JSON report.  Returns false on I/O error.
  [[nodiscard]] bool write_metrics_report(const std::string& path) const;

  /// Create one extra compute node at a site (used by the join-profile
  /// experiments, which repeatedly instantiate a fresh node "B").
  /// `at_ufl` selects the UFL domain, otherwise NWU.
  ComputeNode make_extra_node(bool at_ufl, net::Ipv4Addr vip);

  /// VM migration (§V-C): suspend the node's IPOP, move the physical
  /// host into `to_ufl ? UFL : NWU`, and restart IPOP after
  /// `suspend_time` (the memory/disk copy latency).  The virtual IP is
  /// preserved.  `new_cpu_speed` models the destination host.
  void migrate(ComputeNode& node, bool to_ufl, SimDuration suspend_time,
               double new_cpu_speed);

  // Domains / sites, exposed for experiment-specific wiring.
  net::SiteId site_ufl{}, site_nwu{}, site_lsu{}, site_ncgrid{},
      site_vims{}, site_gru{};
  net::DomainId dom_ufl{}, dom_nwu{}, dom_lsu{}, dom_ncgrid{}, dom_vims{},
      dom_gru_vm{};

 private:
  [[nodiscard]] p2p::NodeConfig base_node_config() const;
  ComputeNode build_compute(const std::string& name, int index,
                            double cpu_speed, net::DomainId domain,
                            net::SiteId site, net::Ipv4Addr phys_ip,
                            net::Ipv4Addr vip);

  /// First, so it is destroyed last: everything below schedules on it.
  sim::Simulator sim_;
  TestbedConfig config_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<p2p::Node>> routers_;
  std::vector<ComputeNode> compute_;
  std::vector<transport::Uri> bootstrap_;
  int extra_ip_counter_ = 0;
  std::unique_ptr<FileTraceSink> trace_sink_;
  std::vector<MetricId> metric_ids_;
};

}  // namespace wow
