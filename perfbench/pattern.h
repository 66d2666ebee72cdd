#pragma once

// The benchmark's bulk-transfer application: a source that streams a
// seeded byte pattern over every accepted vtcp connection, and a sink
// that checks every received byte against the same pattern.  Both are
// closed-loop — the source writes only as the send buffer drains.

#include <cstdint>
#include <memory>
#include <vector>

#include "ledger.h"
#include "vtcp/tcp.h"

namespace wowbench {

/// Byte k of stream `salt` is table[(k + salt) mod a prime period]: any
/// loss, duplication, reordering or cross-stream mix-up shows as a
/// mismatch.
class Pattern {
 public:
  explicit Pattern(std::uint64_t seed);

  void fill(std::uint64_t offset, std::uint64_t salt, std::uint8_t* out,
            std::size_t n) const;
  [[nodiscard]] bool matches(std::uint64_t offset, std::uint64_t salt,
                             const std::uint8_t* data, std::size_t n) const;

  /// The stream salt of a connection, computable at both ends.
  [[nodiscard]] static std::uint64_t salt(wow::net::Ipv4Addr sink_vip,
                                          std::uint16_t sink_port);

 private:
  static constexpr std::size_t kPeriod = 65521;
  std::vector<std::uint8_t> table_;  // two periods: windows never wrap
};

/// Add `t` into `sum`, field by field.
void accumulate(wow::vtcp::TcpSocket::Stats& sum,
                const wow::vtcp::TcpSocket::Stats& t);

class PatternSource {
 public:
  PatternSource(wow::vtcp::TcpStack& stack, std::uint16_t port,
                const Pattern& pattern, std::uint64_t bytes, Ledger* ledger);

  /// Summed vtcp counters of every connection served so far.
  [[nodiscard]] wow::vtcp::TcpSocket::Stats stats() const;

 private:
  void serve(const std::shared_ptr<wow::vtcp::TcpSocket>& socket);

  const Pattern& pattern_;
  std::uint64_t bytes_;
  Ledger* ledger_;
  /// Open connections; closed ones are folded into `closed_` so memory
  /// does not grow with the number of transfers.
  std::vector<std::shared_ptr<wow::vtcp::TcpSocket>> sockets_;
  wow::vtcp::TcpSocket::Stats closed_;
};

class PatternSink {
 public:
  PatternSink(wow::vtcp::TcpStack& stack, const Pattern& pattern,
              Ledger* ledger)
      : stack_(stack), pattern_(pattern), ledger_(ledger) {}

  PatternSink(const PatternSink&) = delete;
  PatternSink& operator=(const PatternSink&) = delete;

  void fetch(wow::net::Ipv4Addr src, std::uint16_t port,
             std::uint64_t expected);

  [[nodiscard]] bool done() const { return done_; }
  /// Complete, uncorrupted and closed cleanly.
  [[nodiscard]] bool ok() const {
    return done_ && !error_ && !corrupt_ && received_ == expected_;
  }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  wow::vtcp::TcpStack& stack_;
  const Pattern& pattern_;
  Ledger* ledger_;
  std::shared_ptr<wow::vtcp::TcpSocket> socket_;
  std::uint64_t expected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t salt_ = 0;
  bool done_ = false;
  bool error_ = false;
  bool corrupt_ = false;
};

}  // namespace wowbench
