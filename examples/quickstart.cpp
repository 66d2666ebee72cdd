// Quickstart: the smallest useful WOW.
//
// Builds a tiny wide-area testbed — a handful of public bootstrap
// routers plus two firewalled "virtual workstations" in different
// domains — lets the overlay self-organize, and exchanges ICMP pings
// over the virtual network.  Watch the latency drop when the adaptive
// shortcut kicks in: that is the paper's headline mechanism working.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "ipop/icmp_service.h"
#include "ipop/ipop_node.h"
#include "net/network.h"
#include "p2p/node.h"
#include "sim/simulator.h"

using namespace wow;

int main() {
  // Everything runs inside a deterministic discrete-event simulation:
  // one Simulator owns virtual time and randomness.
  sim::Simulator sim(/*seed=*/2026);
  net::Network network(sim);

  // Geography: two campuses, 30 ms apart one way.
  auto site_a = network.add_site("campus-a");
  auto site_b = network.add_site("campus-b");
  network.set_site_link(site_a, site_b,
                        net::LinkModel{30 * kMillisecond,
                                       300 * kMicrosecond, 0.0005});

  // A dozen public bootstrap routers (the PlanetLab role).  Give them
  // a per-packet processing cost so multi-hop routing is visibly
  // slower, and enough of them that alice and bob are unlikely to be
  // ring-adjacent (adjacent nodes link directly during the join).
  std::vector<std::unique_ptr<p2p::Node>> routers;
  std::vector<transport::Uri> bootstrap;
  for (int i = 0; i < 12; ++i) {
    net::Host::Config hc;
    hc.proc_service = 4 * kMillisecond;  // a loaded shared host
    auto& host = network.add_host(net::Ipv4Addr(128, 10, 0,
                                                static_cast<std::uint8_t>(i + 1)),
                                  net::Network::kInternet,
                                  i == 0 ? site_a : site_b, hc);
    p2p::NodeConfig cfg;
    cfg.port = 17000;
    if (i > 0) cfg.bootstrap = bootstrap;
    routers.push_back(std::make_unique<p2p::Node>(
        p2p::NodeDeps::sim(sim, network, host), cfg));
    bootstrap.push_back(transport::Uri{
        transport::TransportKind::kUdp, net::Endpoint{host.ip(), 17000}});
  }

  // Two virtual workstations, each behind its own NAT.  Neither can be
  // reached from outside until the overlay hole-punches for them.
  auto make_vm = [&](net::SiteId site, std::uint8_t wan_octet,
                     net::Ipv4Addr vip) {
    net::NatBox::Config nat;  // port-restricted, the common case
    auto domain = network.add_nat_domain(net::Network::kInternet, site,
                                         net::Ipv4Addr(200, 0, 0, wan_octet),
                                         nat);
    auto& host = network.add_host(net::Ipv4Addr(192, 168, wan_octet, 10),
                                  domain, site, net::Host::Config{});
    ipop::IpopNode::Config cfg;
    cfg.vip = vip;  // the address applications see
    cfg.p2p.bootstrap = bootstrap;
    // In an overlay this small, far links would connect everyone to
    // everyone and hide the multi-hop -> shortcut transition we want to
    // demonstrate; compute nodes lean on near links + shortcuts.
    cfg.p2p.far_target = 0;
    return std::make_unique<ipop::IpopNode>(
          p2p::NodeDeps::sim(sim, network, host), cfg);
  };
  auto alice = make_vm(site_a, 1, net::Ipv4Addr(172, 16, 1, 2));
  auto bob = make_vm(site_b, 2, net::Ipv4Addr(172, 16, 1, 3));

  // Boot the overlay (staggered, as real deployments grow), then the
  // workstations.
  for (std::size_t i = 0; i < routers.size(); ++i) {
    p2p::Node* node = routers[i].get();
    sim.schedule(static_cast<SimDuration>(i) * 3 * kSecond,
                 [node] { node->start(); });
  }
  sim.run_for(kMinute);
  alice->start();
  bob->start();
  sim.run_for(kMinute);

  std::printf("alice routable: %s, bob routable: %s\n",
              alice->p2p().routable() ? "yes" : "no",
              bob->p2p().routable() ? "yes" : "no");

  // Ping bob's virtual IP from alice once a second.  The first replies
  // are routed through the loaded routers; after enough traffic the
  // ShortcutConnectionOverlord builds a direct hole-punched link.
  ipop::IcmpService ping_alice(*alice);
  ipop::IcmpService ping_bob(*bob);  // installs bob's echo responder
  (void)ping_bob;

  ping_alice.set_reply_handler([&](net::Ipv4Addr from, std::uint16_t,
                                   std::uint16_t seq, SimDuration rtt) {
    bool direct = alice->p2p().has_direct(bob->p2p().address());
    std::printf("  reply from %s seq=%2u rtt=%5.1f ms  (%s)\n",
                from.to_string().c_str(), seq, to_millis(rtt),
                direct ? "direct shortcut" : "multi-hop overlay");
  });
  for (int seq = 1; seq <= 120; ++seq) {
    ping_alice.ping(bob->vip(), 1, static_cast<std::uint16_t>(seq));
    sim.run_for(kSecond);
  }

  std::printf("\nshortcut established: %s\n",
              alice->p2p().has_direct(bob->p2p().address()) ? "yes" : "no");
  return 0;
}
