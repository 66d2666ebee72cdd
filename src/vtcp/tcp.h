#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "ipop/ipop_node.h"
#include "sim/timer_service.h"
#include "vtcp/segment.h"

namespace wow::vtcp {

/// Settings of the virtual TCP implementation; its timers and buffer
/// watermarks are constants in tcp.cpp.
struct TcpConfig {
  std::size_t mss = 1400;
  std::size_t recv_window = 256 * 1024;
};

class TcpStack;

/// One endpoint of a virtual TCP connection.
///
/// Implements connection setup (SYN / SYN-ACK / ACK), cumulative ACKs,
/// a single retransmission timer with Jacobson RTT estimation, Karn's
/// rule and exponential backoff, fast retransmit on triple duplicate
/// ACKs, and Reno-style slow start / congestion avoidance.  Enough TCP
/// to reproduce the paper's bulk-transfer and migration behaviour; no
/// urgent data, options, or window scaling games.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  enum class State {
    kListen,      // only inside the stack's listener table
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,     // our FIN sent, waiting for its ACK
    kCloseWait,   // peer's FIN seen, app not yet closed
    kLastAck,     // peer FIN'd, our FIN sent
    kClosed,
  };

  struct Stats {
    std::uint64_t bytes_sent = 0;        // first transmissions only
    std::uint64_t bytes_acked = 0;
    std::uint64_t bytes_received = 0;    // in-order, delivered to app
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
  };

  using DataHandler = std::function<void(const Bytes&)>;
  using Callback = std::function<void()>;
  using ClosedHandler = std::function<void(bool error)>;

  ~TcpSocket();
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Append bytes to the outgoing stream.  Respect send_buffer_room()
  /// and the writable handler for bulk transfers.
  void send(Bytes data);

  [[nodiscard]] std::size_t send_buffer_bytes() const {
    return send_buf_.size() - send_buf_consumed_;
  }
  [[nodiscard]] std::size_t send_buffer_room() const;
  [[nodiscard]] bool writable() const {
    return send_buffer_room() > 0 && state_ == State::kEstablished;
  }

  /// Half-close: FIN is sent once the outgoing stream drains.
  void close();
  /// Abort: RST to the peer, immediate teardown.
  void reset();

  void set_data_handler(DataHandler h) { data_handler_ = std::move(h); }
  void set_established_handler(Callback h) { established_ = std::move(h); }
  /// Invoked when the send buffer drains below the low watermark.
  void set_writable_handler(Callback h) { writable_ = std::move(h); }
  void set_closed_handler(ClosedHandler h) { closed_ = std::move(h); }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] net::Ipv4Addr remote_ip() const { return remote_ip_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] double current_rto_seconds() const {
    return to_seconds(rto_);
  }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }

 private:
  friend class TcpStack;

  TcpSocket(TcpStack& stack, net::Ipv4Addr remote_ip,
            std::uint16_t remote_port, std::uint16_t local_port,
            const TcpConfig& config);

  void start_connect();
  void start_accept(const Segment& syn);
  void on_segment(const Segment& segment);
  void pump();                       // transmit what window allows
  void transmit(std::uint64_t seq, std::size_t len, bool rexmit);
  void send_control(std::uint8_t flags, std::uint64_t seq);
  void send_ack();
  /// Flush the delayed-ACK state with an immediate cumulative ACK.
  void send_pending_ack();
  void arm_timer();
  void on_rto();
  void on_ack(std::uint64_t ack, std::uint32_t wnd);
  void deliver_in_order();
  void update_rtt(SimDuration sample);
  void enter_established();
  void finish(bool error);
  void maybe_send_fin();
  [[nodiscard]] std::uint64_t snd_limit() const;
  /// Index into send_buf_ where un-trimmed (still logical) bytes begin.
  [[nodiscard]] std::size_t send_buf_base_offset() const {
    return send_buf_consumed_;
  }

  TcpStack& stack_;
  TcpConfig config_;
  State state_ = State::kClosed;
  net::Ipv4Addr remote_ip_;
  std::uint16_t remote_port_ = 0;
  std::uint16_t local_port_ = 0;

  // Sender state.  Internal sequence numbers are 64-bit offsets from the
  // ISN; the wire carries the low 32 bits.
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  /// Highest sequence ever transmitted.  After a retransmission-timeout
  /// rewind (go-back-N), cumulative ACKs between snd_nxt_ and snd_max_
  /// are still valid — they cover data that was in flight when the
  /// (possibly spurious) timeout fired.
  std::uint64_t snd_max_ = 0;
  std::uint64_t fin_seq_ = 0;      // stream length when close() called
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  /// Stream bytes [send_buf_base_, ...) live at
  /// send_buf_[send_buf_consumed_ ...]; acked prefixes are trimmed
  /// lazily (compaction every high_water bytes).
  Bytes send_buf_;
  std::uint64_t send_buf_base_ = 0;
  std::size_t send_buf_consumed_ = 0;
  bool eof_notified_ = false;
  std::uint32_t peer_window_ = 0;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  int dup_acks_ = 0;
  int rexmit_count_ = 0;
  /// NewReno recovery: snd_nxt_ at fast-retransmit time; partial ACKs
  /// below this point trigger immediate hole retransmission.
  std::uint64_t recovery_point_ = 0;
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  SimDuration rto_ = 0;
  sim::TimerHandle rto_timer_;
  /// Segment whose RTT is being sampled (Karn's rule).
  std::optional<std::pair<std::uint64_t, SimTime>> rtt_probe_;

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  int unacked_segments_ = 0;
  sim::TimerHandle delack_timer_;
  bool peer_fin_seen_ = false;
  std::uint64_t peer_fin_seq_ = 0;
  std::map<std::uint64_t, Bytes> reorder_;

  DataHandler data_handler_;
  Callback established_;
  Callback writable_;
  ClosedHandler closed_;
  Stats stats_;
};

/// The guest's TCP layer, bound to one IpopNode (one virtual IP).
/// Demultiplexes inbound segments to sockets / listeners and owns the
/// socket lifecycle.  The stack object — like the guest kernel's TCP
/// state — survives IPOP restarts, which is precisely what lets
/// transfers resume after VM migration.
class TcpStack {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpSocket>)>;

  /// `timers` is the backend timer seam: the Simulator in simulated
  /// runs, a RealtimeEventLoop over real sockets.  The stack — like
  /// everything above the p2p layer — runs unchanged over either.
  TcpStack(sim::TimerService& timers, ipop::IpopNode& node,
           TcpConfig config = {});

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Accept connections on `port`.
  void listen(std::uint16_t port, AcceptHandler handler);
  void stop_listening(std::uint16_t port) { listeners_.erase(port); }

  /// Open a connection; the socket reports readiness through its
  /// established handler.
  std::shared_ptr<TcpSocket> connect(net::Ipv4Addr dst,
                                     std::uint16_t dst_port);

  [[nodiscard]] sim::TimerService& timers() { return timers_; }
  [[nodiscard]] ipop::IpopNode& node() { return node_; }
  [[nodiscard]] const TcpConfig& config() const { return config_; }
  [[nodiscard]] net::Ipv4Addr vip() const { return node_.vip(); }
  [[nodiscard]] std::size_t open_sockets() const { return sockets_.size(); }

 private:
  friend class TcpSocket;

  struct ConnKey {
    std::uint32_t remote_ip;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  void on_ip_packet(const ipop::IpPacket& packet);
  void send_segment(net::Ipv4Addr dst, Segment segment);
  void detach(TcpSocket& socket);
  [[nodiscard]] std::uint16_t ephemeral_port();

  sim::TimerService& timers_;
  ipop::IpopNode& node_;
  TcpConfig config_;
  std::map<ConnKey, std::shared_ptr<TcpSocket>> sockets_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_ephemeral_ = 40000;
  /// Fleet-wide parse.reject counter, fetched on first reject.
  MetricCounter* parse_reject_ = nullptr;
};

}  // namespace wow::vtcp
