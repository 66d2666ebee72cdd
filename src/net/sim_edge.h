#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "net/addr.h"
#include "p2p/edge.h"
#include "transport/uri.h"

namespace wow::net {

class Host;
class Network;

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

  [[nodiscard]] transport::Uri local_uri() const override;

 private:
  Network& network_;
  Host* host_;
  std::uint16_t port_ = 0;
  bool open_ = false;
};

}  // namespace wow::net
