#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/time.h"
#include "p2p/connection_table.h"
#include "p2p/linking.h"
#include "p2p/misbehavior.h"
#include "p2p/node_config.h"
#include "p2p/node_deps.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "p2p/peer_cache.h"
#include "sim/timer_service.h"

namespace wow::p2p {

class BootstrapOverlord;
class CensusAgent;
class CtmOverlord;
class KeepaliveManager;
class RelayAgent;
class ShortcutOverlord;

/// A Brunet overlay node: the composition root of the protocol-service
/// stack, plus the one concern it keeps for itself — greedy ring
/// routing (§IV-A).
///
/// Everything else lives in a service behind a narrow interface:
///   - LinkingEngine      link handshakes (active attempts, races)
///   - KeepaliveManager   probes, RTT memory, flap quarantine
///   - CtmOverlord        CTM protocol + near/far acquisition policy
///   - RelayAgent         §V-B tunnels and upgrade probes
///   - BootstrapOverlord  multi-endpoint discovery + cached-peer rejoin
///   - CensusAgent        ring census + partitioned-ring merge
///   - ShortcutOverlord   proximity shortcuts
/// The node wires them together over shared state (ConnectionTable,
/// NodeStats, FlightRecorder).  A service a test runs without a Node
/// takes hook functions; relay, bootstrap and census are built from the
/// Node itself and call it directly.  Inbound frames are demuxed by a
/// switch on their kind byte.
///
/// Life cycle: construct (from a NodeDeps bundle) -> start() ->
/// exchanges data via send_data()/set_data_handler().  stop() models
/// killing the user-level IPOP process (abrupt; peers discover the death
/// through keepalive timeouts); restart() rejoins the overlay with the
/// same ring address — together they implement the VM-migration flow of
/// §V-C.
class Node {
 public:
  using Stats = NodeStats;

  /// Payload is a view into the delivered frame; copy it to keep it
  /// beyond the handler call.
  using DataHandler =
      std::function<void(const Address& src, BytesView payload)>;

  Node(NodeDeps deps, NodeConfig config);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Join the overlay: bind the transport, start overlord timers, link
  /// to a bootstrap node if configured.
  void start();

  /// Abrupt shutdown (kill -9 of the IPOP process): all local state
  /// vanishes; no Close messages are sent.
  void stop();

  /// Graceful shutdown: Close frames are sent so peers drop state
  /// immediately.
  void stop_gracefully();

  /// Rejoin after stop() — same ring address, fresh physical identity
  /// (the host may have been re-homed by VM migration).
  void restart();

  [[nodiscard]] bool running() const { return running_; }

  // --- data plane --------------------------------------------------------

  /// Tunnel an opaque payload to the node owning `dst`.  Single overlay
  /// hop if a direct connection exists, greedy multi-hop otherwise.
  /// The payload is copied once, into a frame of its own.
  void send_data(const Address& dst, BytesView payload);
  /// The same for a payload already in `frame`, built with at least
  /// RoutedPacket::kHeaderBytes of headroom: the routed header is
  /// written there in place, so the payload is never copied again.
  void send_data(const Address& dst, FrameBuf frame);

  void set_data_handler(DataHandler handler) {
    data_handler_ = std::move(handler);
  }

  // --- observability ------------------------------------------------------

  [[nodiscard]] const Address& address() const { return config_.address; }
  [[nodiscard]] const ConnectionTable& connections() const { return table_; }
  [[nodiscard]] const NodeConfig& node_config() const { return config_; }
  [[nodiscard]] NodeConfig& mutable_config() { return config_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const LinkingEngine::Stats& link_stats() const {
    return linking_->stats();
  }
  [[nodiscard]] ShortcutOverlord& shortcut_overlord() { return *shortcuts_; }
  [[nodiscard]] const ShortcutOverlord& shortcut_overlord() const {
    return *shortcuts_;
  }
  /// The node's transport seam (bound while running).
  [[nodiscard]] EdgeFactory& edges() { return *edges_; }

  /// The node's black box: a bounded ring of recent protocol events,
  /// dumped by the oracle/chaos post-mortem path on violation.
  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

  /// Bounded recently-seen peer store (Wolinsky-style bootstrap cache).
  /// Lives on the Node OBJECT, not the running incarnation: stop()
  /// leaves it warm, so restart() can rejoin through a cached peer
  /// without touching any bootstrap endpoint.
  [[nodiscard]] const PeerCache& peer_cache() const { return peer_cache_; }

  /// Ring-census / merge agent introspection (tests).
  [[nodiscard]] const CensusAgent& census() const { return *census_; }

  /// Endpoint-backoff introspection (tests): when bootstrap endpoint
  /// `i` may be probed again (0 = immediately).
  [[nodiscard]] SimTime bootstrap_retry_after(std::size_t i) const;

  /// True once the node holds structured-near connections on both ring
  /// sides (or is one of fewer than three nodes).  "Fully routable" in
  /// the paper's join-latency experiment.
  [[nodiscard]] bool routable() const;

  /// Simulated time the node first became routable after the most
  /// recent start()/restart(); nullopt if not yet.
  [[nodiscard]] std::optional<SimTime> routable_since() const {
    return routable_since_;
  }

  /// Cached address().brief() — the allocation-free spelling for
  /// per-sample consumers (NodeInspector).
  [[nodiscard]] const std::string& brief() const { return trace_node_; }

  /// True if a single-hop connection (of any type) to `dst` exists.
  [[nodiscard]] bool has_direct(const Address& dst) const {
    return table_.contains(dst);
  }

  /// Per-component estimated memory footprint (bytes/node accounting,
  /// DESIGN §14).  Component figures include each service object plus
  /// its heap state; `protocol_state` is the live dynamic-state subset
  /// — connections held, per-peer health, pending operations, flight
  /// ring — that the flyweight profile budgets at ~1 KB/node.
  struct MemoryFootprint {
    std::size_t self = 0;  // Node object, labels, config heap
    std::size_t table = 0;
    std::size_t keepalive = 0;
    std::size_t ctm = 0;
    std::size_t relay = 0;
    std::size_t bootstrap = 0;
    std::size_t shortcut = 0;
    std::size_t linking = 0;
    std::size_t flight = 0;
    std::size_t protocol_state = 0;

    [[nodiscard]] std::size_t total() const {
      return self + table + keepalive + ctm + relay + bootstrap + shortcut +
             linking + flight;
    }
  };
  [[nodiscard]] MemoryFootprint memory_footprint() const;

  /// Ask for a shortcut/far/near connection to a (known) address now.
  /// Exposed for overlord use and tests.
  void initiate_ctm(const Address& target, ConnectionType type);

  // --- adaptive self-healing introspection (tests, overlords) -------------

  /// Keepalive probe episodes currently tracked; bounded by the number
  /// of held connections (regression guard for the churn leak).
  [[nodiscard]] std::size_t ping_state_count() const;
  /// CTM requests awaiting a reply or retry; bounded by the sweep.
  [[nodiscard]] std::size_t pending_ctm_count() const;
  /// True while active attempts toward `peer` are suppressed after
  /// repeated flaps.
  [[nodiscard]] bool is_quarantined(const Address& peer) const;
  /// When the current quarantine lapses (0 = not quarantined).
  [[nodiscard]] SimTime quarantine_until(const Address& peer) const;
  /// Smoothed RTT toward a peer (0 = no clean sample yet).
  [[nodiscard]] SimDuration srtt_of(const Address& peer) const;

 private:
  // The services built from the Node read its state and call its
  // private paths directly.
  friend class BootstrapOverlord;
  friend class CensusAgent;
  friend class RelayAgent;

  // frame plumbing
  /// Demux a datagram by its FrameKind byte.
  void on_datagram(const net::Endpoint& from, SharedBytes payload);
  void handle_link(const LinkFrame& frame, const net::Endpoint& from);
  /// Send a link frame over `c`: direct, or wrapped through its agent.
  void send_link_frame(const Connection& c, const LinkFrame& frame);
  /// Construct the protocol services (ctor).
  void build_services();

  // routing.  `from` is the source endpoint of the datagram that
  // carried the packet (empty for locally-originated packets) — the
  // only authenticated identity a frame has, threaded through to the
  // consumers so misbehavior evidence lands on the endpoint and never
  // on a forgeable claimed ring address (DESIGN §16).
  void route(RoutedPacket packet, const net::Endpoint& from = {});
  /// Consume a packet routed to this node by its RoutedType.
  void deliver_local(const RoutedPacket& packet, const net::Endpoint& from);
  void deliver_data(const RoutedPacket& packet);
  void maybe_bounce(const RoutedPacket& packet);
  void forward_to(const Connection& next, RoutedPacket packet);

  // diagnostics
  void log(LogLevel level, const std::string& message) const;
  void register_metrics();
  /// Emit a packet-level trace event ("packet.send", "packet.forward",
  /// "packet.drop", ...).  `reason` may be empty.
  void trace_packet(const char* event, const RoutedPacket& packet,
                    const char* reason) const;

  // connection lifecycle
  void on_link_established(const Address& peer,
                           const std::vector<transport::Uri>& uris,
                           const net::Endpoint& remote, ConnectionType type);
  void on_link_failed(const Address& peer, ConnectionType type);
  void refresh_connections();
  void drop_connection(const Address& peer, bool send_close,
                       DisconnectCause cause);
  /// Retention sweep (§14): close one aged structured-near link per
  /// tick that is no longer within near_per_side of self on its ring
  /// side.  Without it every ring-position shift leaks a permanent
  /// near link and the table grows with fleet age instead of holding
  /// the ~2·near + k·far steady state.
  void trim_connections();
  /// Accumulate misbehavior evidence against a source endpoint; crossing
  /// the threshold quarantines + drops whichever held peer answers from
  /// it.  No-op while defenses are off.
  void note_misbehavior(const net::Endpoint& from, int weight);
  void update_routable();
  [[nodiscard]] std::size_t shortcut_connection_count() const;

  // overlord tick
  void maintenance();

  // injected environment (see NodeDeps)
  sim::TimerService& timers_;
  Rng& rng_;
  Logger& logger_;
  MetricsRegistry& metrics_;
  Tracer& tracer_;
  std::unique_ptr<EdgeFactory> edges_;

  NodeConfig config_;
  ConnectionTable table_;
  /// Survives stop()/restart() by design (see peer_cache()).  Declared
  /// after config_ — constructed from its capacity.
  PeerCache peer_cache_;

  // protocol services (construction order: keepalive before the
  // services that consult it is immaterial — they call it later — but
  // keep the dependency direction readable).
  std::unique_ptr<KeepaliveManager> keepalive_;
  std::unique_ptr<CtmOverlord> ctm_;
  std::unique_ptr<RelayAgent> relays_;
  std::unique_ptr<BootstrapOverlord> bootstrap_;
  std::unique_ptr<CensusAgent> census_;
  std::unique_ptr<ShortcutOverlord> shortcuts_;
  /// Rebuilt on every start(): an aborted engine carries no stale
  /// attempt state into the next incarnation.
  std::unique_ptr<LinkingEngine> linking_;

  DataHandler data_handler_;

  sim::TimerHandle maintenance_timer_;
  std::optional<SimTime> routable_since_;
  bool running_ = false;
  Stats stats_;
  /// Always-on bounded post-mortem ring (constructed from
  /// config_.flight_capacity, so it must be declared after config_).
  FlightRecorder flight_;
  /// Per-endpoint misbehavior scores + control-frame token buckets.
  MisbehaviorLedger ledger_;
  /// Cached labels: ring-address brief for traces/metrics, and the
  /// hierarchical logger component ("node/<brief>").
  std::string trace_node_;
  std::string log_component_;
  std::vector<MetricId> metric_ids_;
};

}  // namespace wow::p2p
