#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "net/addr.h"
#include "transport/uri.h"

namespace wow::p2p {

/// One overlay edge: a point-to-point datagram channel to a single
/// remote endpoint (Brunet's Edge).  Edges are views over their
/// factory's multiplexed socket — creating one costs a map entry, not a
/// socket — and frames from the edge's remote are delivered to its
/// receiver when one is set, falling back to the factory-level receiver
/// otherwise.
///
/// Interface-only header: implementations live with their backend
/// (net::SimEdge over the simulated network, transport::UdpEdgeFactory's
/// edges over real sockets), so lower layers can include this freely.
class Edge {
 public:
  /// Delivery callback for frames arriving from this edge's remote.
  using Receiver = std::function<void(SharedBytes payload)>;

  virtual ~Edge() = default;

  /// Send one datagram to the remote.  Dropped silently when closed.
  virtual void send(SharedBytes payload) = 0;
  void send(Bytes payload) { send(SharedBytes(std::move(payload))); }

  /// Stop delivering and sending; the factory forgets the edge.
  virtual void close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;

  /// Local advertised URI (the factory's primary URI).
  [[nodiscard]] virtual transport::Uri local_uri() const = 0;
  /// The remote endpoint this edge points at.
  [[nodiscard]] virtual transport::Uri remote_uri() const = 0;

  virtual void set_receiver(Receiver receiver) = 0;
};

/// Creates edges and carries the shared datagram plane they multiplex
/// over (Brunet's EdgeListener).  One bound port serves every peer —
/// which is what makes UDP hole punching work: the NAT mapping created
/// by any outbound packet serves every peer that learns it.
///
/// The hot path is endpoint-addressed (`send_to`) so forwarding a frame
/// costs no per-edge lookup; `edge_to()` materializes a per-remote Edge
/// handle when a component wants the object-per-peer view.
///
/// Also owns the advertised-URI set: the private/primary URI plus every
/// NAT-assigned public endpoint learnt from peers (link replies echo
/// the observed source address, §IV-C).
class EdgeFactory {
 public:
  /// Factory-level delivery callback.  Receives the datagram's shared
  /// buffer by value: the receiver keeps the only reference after
  /// delivery, enabling in-place frame rewrites.
  using Receiver =
      std::function<void(const net::Endpoint& src, SharedBytes payload)>;

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

  /// The edge to `remote`, created on first use.  The reference stays
  /// valid until the edge is closed or the factory dies.
  [[nodiscard]] virtual Edge& edge_to(const net::Endpoint& remote) = 0;

  // --- advertised URIs ---------------------------------------------------

  /// The primary (private) URI: the bound interface address + port.
  [[nodiscard]] virtual transport::Uri local_uri() const = 0;

  /// All URIs to advertise in CTM / link messages; primary URI first,
  /// then learnt public URIs freshest-first.  Ordering for the *linking
  /// attempt* is chosen by the caller (§V-B).
  [[nodiscard]] virtual std::vector<transport::Uri> local_uris() const = 0;

  /// Record a NAT-assigned public endpoint a peer observed for us.
  /// Returns true if it was new (the advertised set changed).
  virtual bool learn_public_uri(const transport::Uri& uri) = 0;

 protected:
  void deliver(const net::Endpoint& src, SharedBytes payload) {
    if (receiver_) receiver_(src, std::move(payload));
  }
  [[nodiscard]] bool has_receiver() const { return receiver_ != nullptr; }

 private:
  Receiver receiver_;
};

/// Advertised-URI bookkeeping shared by EdgeFactory backends: learnt
/// public URIs freshest-first, capped at 3 (stale NAT mappings age out
/// as fresh observations arrive).
class UriAdvertSet {
 public:
  /// The full advertised list: `primary` first, then the learnt set.
  [[nodiscard]] std::vector<transport::Uri> all(
      const transport::Uri& primary) const {
    std::vector<transport::Uri> uris;
    uris.reserve(1 + public_uris_.size());
    uris.push_back(primary);
    uris.insert(uris.end(), public_uris_.begin(), public_uris_.end());
    return uris;
  }

  /// Returns true if `uri` was new; re-observations rotate it to the
  /// front so peers try the freshest mapping first.
  bool learn(const transport::Uri& uri, const transport::Uri& primary) {
    if (uri.endpoint == primary.endpoint) return false;
    auto it = std::find(public_uris_.begin(), public_uris_.end(), uri);
    if (it != public_uris_.end()) {
      std::rotate(public_uris_.begin(), it, it + 1);
      return false;
    }
    public_uris_.insert(public_uris_.begin(), uri);
    if (public_uris_.size() > 3) public_uris_.pop_back();
    return true;
  }

  void forget() { public_uris_.clear(); }

 private:
  std::vector<transport::Uri> public_uris_;
};

}  // namespace wow::p2p
