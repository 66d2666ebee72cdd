#include "net/sim_edge.h"

#include "net/host.h"
#include "net/network.h"
#include "p2p/node_deps.h"
#include "sim/simulator.h"

namespace wow::p2p {

// Defined here, not in src/p2p: the canonical simulator-backed bundle
// is a property of the sim backend, and src/p2p's include closure must
// stay free of sim/simulator.h and net/network.h (DESIGN §17).  The
// declaration in node_deps.h only forward-declares the backend types.
NodeDeps NodeDeps::sim(sim::Simulator& simulator, net::Network& network,
                       net::Host& host) {
  NodeDeps deps;
  deps.timers = &simulator;
  deps.rng = &simulator.rng();
  deps.logger = &simulator.logger();
  deps.metrics = &simulator.metrics();
  deps.tracer = &simulator.trace();
  deps.edges = std::make_unique<net::SimEdgeFactory>(network, host);
  return deps;
}

}  // namespace wow::p2p

namespace wow::net {

SimEdgeFactory::SimEdgeFactory(Network& network, Host& host)
    : network_(network), host_(&host) {}

void SimEdgeFactory::bind(std::uint16_t port) {
  if (open_) close();
  forget_public_uris();
  port_ = port;
  host_->bind(port_, [this](const Endpoint& src, std::uint16_t,
                            SharedBytes payload) {
    deliver(src, std::move(payload));
  });
  open_ = true;
}

void SimEdgeFactory::close() {
  if (!open_) return;
  host_->unbind(port_);
  open_ = false;
}

void SimEdgeFactory::send_to(const Endpoint& dst, SharedBytes payload) {
  if (!open_) return;
  network_.send(*host_, port_, dst, std::move(payload));
}

transport::Uri SimEdgeFactory::local_uri() const {
  return transport::Uri{transport::TransportKind::kUdp,
                        Endpoint{host_->ip(), port_}};
}

}  // namespace wow::net
