#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "net/addr.h"
#include "transport/uri.h"

namespace wow::p2p {

/// The handle to one remote endpoint (Brunet's Edge).  It carries no
/// traffic: frames go through the factory's `send_to`, and every inbound
/// frame reaches the factory's receiver.  A handle only knows whether it
/// is closed; its factory owns it and keeps it until the factory dies.
class Edge {
 public:
  /// Mark the edge closed; `EdgeFactory::edge_to` reopens it.
  void close() { closed_ = true; }
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  friend class EdgeFactory;

  bool closed_ = false;
};

/// The transport seam (Brunet's EdgeListener): one bound port that
/// carries the datagrams of every peer — which is what makes UDP hole
/// punching work: the NAT mapping created by any outbound packet serves
/// every peer that learns it.
///
/// A backend supplies the socket: `bind`, `close`, `is_open`, `send_to`
/// and `local_uri`, and calls `deliver` for each inbound datagram.  This
/// base keeps what does not depend on the backend: the edge handles and
/// the advertised-URI set, the private/primary URI plus the NAT-assigned
/// public endpoints peers observed for us (link replies echo the
/// observed source address, §IV-C).
///
/// Header-only: the simulated backend's library links below wow_p2p.
class EdgeFactory {
 public:
  /// Factory-level delivery callback.  Receives the datagram's shared
  /// buffer by value: the receiver keeps the only reference after
  /// delivery, enabling in-place frame rewrites.
  using Receiver =
      std::function<void(const net::Endpoint& src, SharedBytes payload)>;

  /// Learnt public URIs kept; the oldest ages out past this.
  static constexpr std::size_t kMaxLearntUris = 3;

  virtual ~EdgeFactory() = default;

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  // --- lifecycle ---------------------------------------------------------

  /// Bind (or re-bind after migration) the shared port.  Learnt public
  /// URIs are forgotten: after a move the old NAT mappings are
  /// meaningless.
  virtual void bind(std::uint16_t port) = 0;
  /// Unbind (killing the owning process).
  virtual void close() = 0;
  [[nodiscard]] virtual bool is_open() const = 0;

  // --- datagram plane (hot path) -----------------------------------------

  virtual void send_to(const net::Endpoint& dst, SharedBytes payload) = 0;
  void send_to(const net::Endpoint& dst, Bytes payload) {
    send_to(dst, SharedBytes(std::move(payload)));
  }
  void send_to(const transport::Uri& uri, Bytes payload) {
    send_to(uri.endpoint, SharedBytes(std::move(payload)));
  }

  // --- edge handles ------------------------------------------------------

  /// The handle to `remote`, created on first use and reopened if it
  /// was closed.  The reference stays valid as long as the factory.
  [[nodiscard]] virtual Edge& edge_to(const net::Endpoint& remote) {
    Edge& edge = edges_[remote];
    edge.closed_ = false;
    return edge;
  }

  // --- advertised URIs ---------------------------------------------------

  /// The primary (private) URI: the bound interface address + port.
  [[nodiscard]] virtual transport::Uri local_uri() const = 0;

  /// All URIs to advertise in CTM / link messages; primary URI first,
  /// then learnt public URIs freshest-first.  Ordering for the *linking
  /// attempt* is chosen by the caller (§V-B).
  [[nodiscard]] virtual std::vector<transport::Uri> local_uris() const {
    std::vector<transport::Uri> uris;
    uris.reserve(1 + learnt_.size());
    uris.push_back(local_uri());
    uris.insert(uris.end(), learnt_.begin(), learnt_.end());
    return uris;
  }

  /// Record a NAT-assigned public endpoint a peer observed for us.
  /// Returns true if it was new (the advertised set changed); a
  /// re-observed URI moves to the front so peers try the freshest
  /// mapping first.  The primary's own endpoint is never learnt.
  virtual bool learn_public_uri(const transport::Uri& uri) {
    if (uri.endpoint == local_uri().endpoint) return false;
    auto it = std::find(learnt_.begin(), learnt_.end(), uri);
    if (it != learnt_.end()) {
      std::rotate(learnt_.begin(), it, it + 1);
      return false;
    }
    learnt_.insert(learnt_.begin(), uri);
    if (learnt_.size() > kMaxLearntUris) learnt_.pop_back();
    return true;
  }

 protected:
  void deliver(const net::Endpoint& src, SharedBytes payload) {
    if (receiver_) receiver_(src, std::move(payload));
  }

  /// A backend's socket reported `remote` gone: its handle reads closed.
  void close_edge(const net::Endpoint& remote) {
    auto it = edges_.find(remote);
    if (it != edges_.end()) it->second.close();
  }

  /// Called by each backend's `bind`.
  void forget_public_uris() { learnt_.clear(); }

 private:
  Receiver receiver_;
  /// Node-based, so handed-out references survive later inserts.
  std::map<net::Endpoint, Edge> edges_;
  std::vector<transport::Uri> learnt_;
};

// A peer advertises its primary URI plus the learnt ones, and peers
// store that list inline.
static_assert(transport::UriList::kCapacity ==
              1 + EdgeFactory::kMaxLearntUris);

}  // namespace wow::p2p
