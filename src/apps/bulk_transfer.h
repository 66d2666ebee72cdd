#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/timer_service.h"
#include "vtcp/tcp.h"

namespace wow::apps {

/// Serving side of a bulk transfer: on every inbound connection, stream
/// `bytes` of synthetic data and close.  Stands in for both the `ttcp -t`
/// transmitter of Table II and the SCP/SSH file server of Figure 6 —
/// what the experiments measure is the byte stream, not the file format.
class BulkSource {
 public:
  BulkSource(sim::TimerService& timers, vtcp::TcpStack& stack,
             std::uint16_t port, std::uint64_t bytes);

  void set_size(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  void serve(std::shared_ptr<vtcp::TcpSocket> socket);

  std::uint64_t bytes_;
};

/// Receiving side: connect, count bytes until EOF, report completion.
/// Sampling received() gives the Figure 6 "file size vs time" curve.
class BulkSink {
 public:
  struct Result {
    std::uint64_t bytes = 0;
    SimTime started = 0;
    SimTime finished = 0;
    [[nodiscard]] double seconds() const {
      return to_seconds(finished - started);
    }
    [[nodiscard]] double throughput_kbps() const {
      double s = seconds();
      return s > 0 ? static_cast<double>(bytes) / 1024.0 / s : 0.0;
    }
  };

  using Done = std::function<void(const Result&)>;

  BulkSink(sim::TimerService& timers, vtcp::TcpStack& stack);

  /// Begin a transfer from `src:port`.
  void fetch(net::Ipv4Addr src, std::uint16_t port, Done done);

  [[nodiscard]] std::uint64_t received() const { return received_; }
  /// The transfer's socket (diagnostics; may be null before fetch()).
  [[nodiscard]] const std::shared_ptr<vtcp::TcpSocket>& socket() const {
    return socket_;
  }

 private:
  sim::Clock& clock_;
  vtcp::TcpStack& stack_;
  std::shared_ptr<vtcp::TcpSocket> socket_;
  std::uint64_t received_ = 0;
  SimTime started_ = 0;
};

}  // namespace wow::apps
