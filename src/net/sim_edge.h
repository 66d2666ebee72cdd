#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "net/addr.h"
#include "p2p/edge.h"
#include "transport/uri.h"

namespace wow::net {

class Host;
class Network;
class SimEdgeFactory;

/// A p2p::Edge over the simulated network: a per-remote view of its
/// factory's multiplexed port.
class SimEdge final : public p2p::Edge {
 public:
  SimEdge(SimEdgeFactory& factory, Endpoint remote)
      : factory_(factory), remote_(remote) {}

  void send(SharedBytes payload) override;
  void close() override;
  [[nodiscard]] bool closed() const override { return closed_; }
  [[nodiscard]] transport::Uri local_uri() const override;
  [[nodiscard]] transport::Uri remote_uri() const override {
    return transport::Uri{transport::TransportKind::kUdp, remote_};
  }

 private:
  SimEdgeFactory& factory_;
  Endpoint remote_;
  bool closed_ = false;
};

/// The canonical p2p::EdgeFactory: one simulated UDP port on a
/// simulated host, every overlay edge multiplexed over it.
class SimEdgeFactory final : public p2p::EdgeFactory {
 public:
  SimEdgeFactory(Network& network, Host& host);

  SimEdgeFactory(const SimEdgeFactory&) = delete;
  SimEdgeFactory& operator=(const SimEdgeFactory&) = delete;
  ~SimEdgeFactory() override { close(); }

  void bind(std::uint16_t port) override;
  void close() override;
  [[nodiscard]] bool is_open() const override { return open_; }

  void send_to(const Endpoint& dst, SharedBytes payload) override;

  [[nodiscard]] p2p::Edge& edge_to(const Endpoint& remote) override;

  [[nodiscard]] transport::Uri local_uri() const override;
  [[nodiscard]] std::vector<transport::Uri> local_uris() const override;
  bool learn_public_uri(const transport::Uri& uri) override;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  friend class SimEdge;

  void drop_edge(const Endpoint& remote) { edges_.erase(remote); }

  Network& network_;
  Host* host_;
  std::uint16_t port_ = 0;
  bool open_ = false;
  p2p::UriAdvertSet adverts_;
  /// Materialized per-remote edges (created lazily by edge_to; the data
  /// plane never touches this map).
  std::map<Endpoint, std::unique_ptr<SimEdge>> edges_;
};

}  // namespace wow::net
