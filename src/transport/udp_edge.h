#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/counters.h"
#include "net/addr.h"
#include "p2p/edge.h"
#include "p2p/node_stats.h"
#include "sim/timer_service.h"
#include "transport/realtime.h"
#include "transport/uri.h"

namespace wow::transport {

/// p2p::EdgeFactory over one real UDP socket, driven by a
/// RealtimeEventLoop.  One bound port multiplexes every peer — the same
/// property the simulated factory models, and the one that makes UDP
/// hole punching work.
///
/// Hot paths are batched: send_to() queues into a pending array flushed
/// with a single sendmmsg() after each event-loop dispatch batch (or
/// sooner when the batch fills).  Each run of consecutive equal-size
/// datagrams to one destination leaves as one message with a
/// UDP_SEGMENT control message, so the kernel walks its send path once
/// per run and cuts the datagrams apart (GSO).  The socket enables
/// UDP_GRO, so one received buffer can hold a run of datagrams from one
/// sender; the readable handler drains with recvmmsg() into a ring of
/// 64 KiB slots, splits each buffer at the segment size the kernel
/// reports and copies every datagram out into its own buffer.  On the
/// wire each datagram is an ordinary datagram either way.
///
/// Socket errors surface asynchronously through the IP_RECVERR error
/// queue (ICMP unreachables come back as EPOLLERR wakeups); each is
/// mapped onto the overlay's DisconnectCause taxonomy, the edge handle
/// to the offending remote (if any) is marked closed, and the error
/// handler is told which remote died and why.
class UdpEdgeFactory final : public p2p::EdgeFactory {
 public:
  /// `remote` is the destination the failed datagram was sent to.
  using ErrorHandler = std::function<void(
      const net::Endpoint& remote, p2p::DisconnectCause cause, int err)>;

  /// `advertise_ip` is the address written into local URIs; the socket
  /// itself binds INADDR_ANY so multihomed hosts receive on every
  /// interface.
  UdpEdgeFactory(RealtimeEventLoop& loop, net::Ipv4Addr advertise_ip);
  ~UdpEdgeFactory() override;
  UdpEdgeFactory(const UdpEdgeFactory&) = delete;
  UdpEdgeFactory& operator=(const UdpEdgeFactory&) = delete;

  // --- p2p::EdgeFactory ----------------------------------------------------

  /// Bind the shared port; port 0 picks an ephemeral port (the chosen
  /// one is visible through local_uri()).
  void bind(std::uint16_t port) override;
  void close() override;
  [[nodiscard]] bool is_open() const override { return fd_ >= 0; }

  void send_to(const net::Endpoint& dst, SharedBytes payload) override;
  using p2p::EdgeFactory::send_to;  // the Bytes/Uri convenience overloads

  [[nodiscard]] Uri local_uri() const override {
    return Uri{TransportKind::kUdp, net::Endpoint{advertise_ip_, port_}};
  }

  // --- realtime extras -----------------------------------------------------

  void set_error_handler(ErrorHandler handler) {
    error_handler_ = std::move(handler);
  }

  /// Push the pending send batch out now (the loop's flusher hook calls
  /// this after every dispatch batch).
  void flush();

  /// Edge counters, one `X(field)` each (common/counters.h).  wowd
  /// reports them in its status reply and as `udp_<field>` counters.
#define WOW_UDP_COUNTERS(X)                                        \
  X(datagrams_sent)                                                \
  X(datagrams_received)                                            \
  /* sendmmsg syscalls. */                                         \
  X(send_batches)                                                  \
  /* recvmmsg syscalls. */                                         \
  X(recv_batches)                                                  \
  /* Datagrams refused synchronously. */                           \
  X(send_errors)                                                   \
  /* Error-queue reports. */                                       \
  X(icmp_errors)                                                   \
  /* Datagrams not in (0, kMaxDatagram], and truncated buffers. */ \
  X(dropped_oversize)                                              \
  /* Pending queue overflow. */                                    \
  X(dropped_backlog)                                               \
  /* Messages carrying a GSO run. */                               \
  X(coalesced_sends)                                               \
  /* Buffers carrying a GRO run. */                                \
  X(coalesced_receives)
  struct Stats {
    WOW_COUNTERS(Stats, WOW_UDP_COUNTERS)
  };
#undef WOW_UDP_COUNTERS
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Error-queue errno -> overlay disconnect taxonomy.  ICMP port
  /// unreachable means a live host with no daemon — the peer is gone on
  /// purpose, so it classifies like a close frame; routing-level
  /// unreachables are link failures.
  [[nodiscard]] static p2p::DisconnectCause classify_socket_error(int err);

  /// The bound socket, or -1 when closed.
  [[nodiscard]] int fd() const { return fd_; }

  /// Datagrams larger than this are never generated by the stack;
  /// received ones are dropped (counted in dropped_oversize).
  static constexpr std::size_t kMaxDatagram = 2048;

 private:
  static constexpr std::size_t kSendBatch = 64;  // datagrams per sendmmsg
  /// Buffers per recvmmsg.  Traffic the kernel does not coalesce
  /// arrives one datagram per buffer, so this also bounds its datagrams
  /// per call.
  static constexpr std::size_t kRecvSlots = 32;
  /// Room for the largest GRO buffer: one IPv4 datagram's payload.
  static constexpr std::size_t kRecvSlotBytes = 64 * 1024;
  static constexpr std::size_t kMaxBacklog = 4096;

  /// How many pending datagrams from `first` on (at most `cap`) leave
  /// as one GSO message: same destination, the first one's size, and
  /// the last possibly shorter.
  [[nodiscard]] std::size_t run_length(std::size_t first,
                                       std::size_t cap) const;
  void on_ready(std::uint32_t events);
  void drain_socket();
  void drain_error_queue();
  void handle_socket_error(const net::Endpoint& remote, int err);

  RealtimeEventLoop& loop_;
  net::Ipv4Addr advertise_ip_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t flusher_token_ = 0;
  ErrorHandler error_handler_;
  Stats stats_;

  std::vector<std::pair<net::Endpoint, SharedBytes>> pending_;
  sim::TimerHandle retry_timer_;
  /// Smallest segment size the kernel refused to coalesce on this
  /// socket; runs of this size or larger leave one datagram at a time.
  /// 0 when the kernel has no UDP_SEGMENT.
  std::size_t gso_refused_size_ = kMaxDatagram + 1;
  /// kRecvSlots slots of kRecvSlotBytes, left unfilled: recvmmsg writes
  /// them, so only the pages it writes are faulted in, and each datagram
  /// is copied out before the next read.  Kept until destruction, so a
  /// handler that closes and rebinds mid-split never frees the buffer
  /// being split.
  std::unique_ptr<std::uint8_t[]> recv_ring_;
};

}  // namespace wow::transport
