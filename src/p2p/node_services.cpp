// The composition root's wiring: construct the protocol services with
// exactly the hooks they need, and populate the frame/payload dispatch
// registries (the announce table of §III).  Pure plumbing — every
// behavior lives in the service implementations or in node.cpp.
#include <algorithm>

#include "p2p/bootstrap_overlord.h"
#include "p2p/census_agent.h"
#include "p2p/ctm_overlord.h"
#include "p2p/keepalive.h"
#include "p2p/node.h"
#include "p2p/relay_agent.h"
#include "p2p/shortcut_overlord.h"

namespace wow::p2p {

void Node::build_services() {
  keepalive_ = std::make_unique<KeepaliveManager>(
      timers_, tracer_, logger_, config_, table_, stats_, trace_node_,
      log_component_,
      KeepaliveManager::Hooks{
          [this](const Connection& c, const LinkFrame& frame) {
            send_link_frame(c, frame);
          },
          [this](const Address& peer, DisconnectCause cause) {
            drop_connection(peer, /*send_close=*/false, cause);
          },
          [this](FlightKind kind, const Address& peer, std::int32_t a,
                 std::int32_t b) {
            flight_.record(timers_.now(), kind, peer.brief(), a, b);
          },
      });

  ctm_ = std::make_unique<CtmOverlord>(
      timers_, rng_, tracer_, config_, table_, stats_, trace_node_,
      CtmOverlord::Hooks{
          [this] { return running_; },
          [this] { return routable(); },
          [this](RoutedPacket packet) { route(std::move(packet)); },
          [this](const Connection& next, RoutedPacket packet) {
            forward_to(next, std::move(packet));
          },
          [this] { return edges_->local_uris(); },
          [this](const Address& peer, ConnectionType type,
                 const std::vector<transport::Uri>& uris) {
            linking_->start(peer, type, uris);
          },
          [this](const Address& peer) {
            return keepalive_->is_quarantined(peer);
          },
          [this] { update_routable(); },
          [this](FlightKind kind, const Address& peer, std::int32_t a) {
            flight_.record(timers_.now(), kind, peer.brief(), a);
          },
          [this](const Address& peer, const std::vector<transport::Uri>& uris,
                 const Address& source) {
            // Gossip peer sample from a CTM reply: warm the bootstrap
            // cache so a later rejoin skips the well-known endpoints.
            // Samples are hearsay — with defenses on they enter the
            // cache unverified, attributed to the responder, and capped
            // per source (poison resistance, DESIGN §16).
            if (peer == config_.address || uris.empty()) return;
            bool verified = !config_.defenses_enabled;
            if (peer_cache_.note(peer, transport::UriList(uris),
                                 timers_.now(), verified, source)) {
              ++stats_.gossip_peers_learned;
            } else {
              ++stats_.gossip_poison_rejects;
            }
          },
      });

  relays_ = std::make_unique<RelayAgent>(
      timers_, tracer_, logger_, config_, table_, stats_, *edges_,
      trace_node_, log_component_,
      RelayAgent::Hooks{
          [this](RoutedPacket packet, const net::Endpoint& from) {
            handle_routed(std::move(packet), from);
          },
          [this](const LinkFrame& frame, const net::Endpoint& from) {
            handle_link(frame, from);
          },
          [this](const Connection& c, const LinkFrame& frame) {
            send_link_frame(c, frame);
          },
          [this](const Address& peer, DisconnectCause cause) {
            drop_connection(peer, /*send_close=*/false, cause);
          },
          [this] { return edges_->local_uris(); },
          [this](const Address& peer) {
            return linking_ && linking_->attempting(peer);
          },
          [this](const Address& peer) {
            return linking_ && linking_->recently_tried(peer);
          },
          [this](const Address& peer) {
            return keepalive_->is_quarantined(peer);
          },
          [this](const net::Endpoint& from, int weight) {
            note_misbehavior(from, weight);
          },
          [this](const Address& peer, ConnectionType type,
                 const std::vector<transport::Uri>& uris) {
            linking_->start(peer, type, uris);
          },
          [this](const Address& peer) {
            return keepalive_->peer_rto_hint(peer);
          },
          [this](const Address& peer) {
            return keepalive_->next_direct_probe(peer);
          },
          [this](const Address& peer, SimTime when) {
            keepalive_->set_next_direct_probe(peer, when);
          },
          [this](Connection& c) { keepalive_->seed_estimator(c); },
          [this] { update_routable(); },
          [this](FlightKind kind, const Address& peer) {
            flight_.record(timers_.now(), kind, peer.brief());
          },
      });

  bootstrap_ = std::make_unique<BootstrapOverlord>(
      timers_, rng_, tracer_, config_, table_, *edges_, stats_, peer_cache_,
      trace_node_,
      BootstrapOverlord::Hooks{
          [this](const Address& peer) {
            return linking_ && linking_->attempting(peer);
          },
          [this](const Address& peer, ConnectionType type,
                 const std::vector<transport::Uri>& uris) {
            linking_->start(peer, type, uris);
          },
          [this](FlightKind kind, const Address& peer, std::int32_t a,
                 std::int32_t b) {
            flight_.record(timers_.now(), kind, peer.brief(), a, b);
          },
          [this](const Address& peer) {
            drop_connection(peer, /*send_close=*/true,
                            DisconnectCause::kTrimmed);
          },
      });

  census_ = std::make_unique<CensusAgent>(
      timers_, tracer_, config_, table_, stats_, trace_node_,
      CensusAgent::Hooks{
          [this] { return running_; },
          [this] { return routable(); },
          [this] { return edges_->local_uris(); },
          [this](const net::Endpoint& to, const Bytes& frame) {
            edges_->send_to(to, frame);
          },
          [this](const Address& peer) {
            return linking_ && linking_->attempting(peer);
          },
          [this](const Address& peer, ConnectionType type,
                 const std::vector<transport::Uri>& uris) {
            linking_->start(peer, type, uris);
          },
          [this](FlightKind kind, const Address& peer, std::int32_t a,
                 std::int32_t b) {
            flight_.record(timers_.now(), kind, peer.brief(), a, b);
          },
      });

  shortcuts_ = std::make_unique<ShortcutOverlord>(
      config_.shortcut,
      ShortcutOverlord::Hooks{
          [this](const Address& a) { return table_.contains(a); },
          [this](const Address& a) {
            return linking_ && linking_->attempting(a);
          },
          [this] { return shortcut_connection_count(); },
          [this](const Address& a) {
            initiate_ctm(a, ConnectionType::kShortcut);
          },
          [this](const Address& a) { return is_quarantined(a); },
          [this](const Address& a) -> SimDuration {
            // Adaptive spacing: a shortcut attempt is a CTM plus a link
            // handshake, each a few round-trips — 8 RTOs is a generous
            // bound, and the fixed cooldown stays the ceiling.
            SimDuration hint = keepalive_->peer_rto_hint(a);
            if (hint == 0) return SimDuration{0};
            return std::clamp(8 * hint, 2 * kSecond, kShortcutRetryCooldown);
          },
      });
}

void Node::register_handlers() {
  frames_.add(static_cast<std::uint8_t>(FrameKind::kRouted),
              [this](SharedBytes payload, const net::Endpoint& from) {
                // Zero-copy: the packet adopts the frame buffer;
                // forwarding rewrites its mutable header fields in place
                // instead of re-serializing.
                auto packet = RoutedPacket::parse(std::move(payload));
                if (packet) {
                  handle_routed(std::move(*packet), from);
                } else {
                  ++stats_.parse_rejects;
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kLink),
              [this](SharedBytes payload, const net::Endpoint& from) {
                auto frame = LinkFrame::parse(payload.view());
                if (frame) {
                  handle_link(*frame, from);
                } else {
                  ++stats_.parse_rejects;
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kRelay),
              [this](SharedBytes payload, const net::Endpoint& from) {
                auto relay = RelayFrame::parse(std::move(payload));
                if (relay) {
                  relays_->handle_frame(std::move(*relay), from);
                } else {
                  ++stats_.parse_rejects;
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kCensus),
              [this](SharedBytes payload, const net::Endpoint&) {
                auto census = CensusFrame::parse(payload.view());
                if (census) {
                  census_->handle(*census);
                } else {
                  ++stats_.parse_rejects;
                }
              });

  routed_.add(static_cast<std::uint8_t>(RoutedType::kData),
              [this](const RoutedPacket& packet, const net::Endpoint&) {
                deliver_data(packet);
              });
  routed_.add(static_cast<std::uint8_t>(RoutedType::kCtmRequest),
              [this](const RoutedPacket& packet, const net::Endpoint& from) {
                ctm_->handle_request(packet, from);
              });
  routed_.add(static_cast<std::uint8_t>(RoutedType::kCtmReply),
              [this](const RoutedPacket& packet, const net::Endpoint& from) {
                if (packet.dst == config_.address) {
                  ctm_->handle_reply(packet, from);
                }
              });
}

}  // namespace wow::p2p
