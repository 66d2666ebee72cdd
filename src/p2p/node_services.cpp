// The composition root's wiring: construct the protocol services.  The
// two a test runs without a Node (keepalive, CTM) and the shortcut
// overlord get their hooks here; relay, bootstrap and census are built
// from the Node and call it directly.  Pure plumbing — every behavior
// lives in the service implementations or in node.cpp.
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
      timers_, tracer_, logger_, config_, table_, flight_, stats_,
      trace_node_, log_component_,
      KeepaliveManager::Hooks{
          [this](const Connection& c, const LinkFrame& frame) {
            send_link_frame(c, frame);
          },
          [this](const Address& peer, DisconnectCause cause) {
            drop_connection(peer, /*send_close=*/false, cause);
          },
      });

  ctm_ = std::make_unique<CtmOverlord>(
      timers_, rng_, tracer_, config_, table_, flight_, stats_, trace_node_,
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

  relays_ = std::make_unique<RelayAgent>(*this);
  bootstrap_ = std::make_unique<BootstrapOverlord>(*this);
  census_ = std::make_unique<CensusAgent>(*this);

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

}  // namespace wow::p2p
