#pragma once

#include <memory>

#include "p2p/edge.h"

namespace wow {
class Logger;
class MetricsRegistry;
class Rng;
class Tracer;
}  // namespace wow

namespace wow::net {
class Host;
class Network;
}  // namespace wow::net

namespace wow::sim {
class Simulator;
class TimerService;
}  // namespace wow::sim

namespace wow::p2p {

/// Everything a Node needs from its environment, bundled so the
/// testbed, examples and tests construct nodes one way.
///
/// The references are non-owning and must outlive the node; the edge
/// factory is owned (it is the node's transport identity).  `sim()`
/// builds the canonical simulator-backed bundle; a non-simulator
/// backend (wowd's RealtimeEventLoop + UdpEdgeFactory) fills the
/// fields directly.
struct NodeDeps {
  sim::TimerService* timers = nullptr;
  Rng* rng = nullptr;
  Logger* logger = nullptr;
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  std::unique_ptr<EdgeFactory> edges;

  /// The canonical bundle: clock/rng/logger/metrics/tracer from the
  /// simulator, edges over the simulated network (net::SimEdgeFactory)
  /// homed at `host`.
  [[nodiscard]] static NodeDeps sim(sim::Simulator& simulator,
                                    net::Network& network, net::Host& host);
};

}  // namespace wow::p2p
