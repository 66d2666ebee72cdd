#include "vtcp/tcp.h"

#include <algorithm>

namespace wow::vtcp {

namespace {

constexpr std::uint64_t kNoFin = ~std::uint64_t{0};
/// Send-buffer watermarks driving the writable() callback, so bulk
/// senders (SCP, ttcp) stream data without buffering whole files.
constexpr std::size_t kSendHighWater = 256 * 1024;
constexpr std::size_t kSendLowWater = 64 * 1024;
constexpr SimDuration kInitialRto = 1 * kSecond;
constexpr SimDuration kMinRto = 200 * kMillisecond;
/// Delayed-ACK: acknowledge every second in-order segment, or after
/// this delay, whichever first.  Out-of-order segments ACK instantly
/// (dup-ACKs drive fast retransmit).
constexpr SimDuration kDelayedAck = 100 * kMillisecond;
/// RTO backoff cap.  Bounded so a connection stalled by a VM migration
/// outage probes often enough to resume promptly (§V-C).
constexpr SimDuration kMaxRto = 30 * kSecond;
/// Consecutive retransmissions of the same segment before giving up.
/// Generous: TCP must ride out the multi-minute no-routability window
/// during wide-area VM migration.
constexpr int kMaxRetransmits = 40;
constexpr std::uint32_t kInitialCwndSegments = 4;

}  // namespace

// ---------------------------------------------------------------- TcpSocket

TcpSocket::TcpSocket(TcpStack& stack, net::Ipv4Addr remote_ip,
                     std::uint16_t remote_port, std::uint16_t local_port,
                     const TcpConfig& config)
    : stack_(stack), config_(config), remote_ip_(remote_ip),
      remote_port_(remote_port), local_port_(local_port) {
  cwnd_ = static_cast<double>(kInitialCwndSegments * config_.mss);
  ssthresh_ = 1e12;
  rto_ = kInitialRto;
  peer_window_ = static_cast<std::uint32_t>(config_.recv_window);
  fin_seq_ = kNoFin;
}

TcpSocket::~TcpSocket() {
  stack_.timers().cancel(rto_timer_);
  stack_.timers().cancel(delack_timer_);
}

void TcpSocket::start_connect() {
  state_ = State::kSynSent;
  snd_una_ = 0;
  snd_nxt_ = 1;  // SYN occupies sequence 0
  snd_max_ = 1;
  send_control(kSyn, 0);
  arm_timer();
}

void TcpSocket::start_accept(const Segment&) {
  state_ = State::kSynReceived;
  rcv_nxt_ = 1;  // peer's SYN consumed
  snd_una_ = 0;
  snd_nxt_ = 1;  // our SYN-ACK occupies sequence 0
  snd_max_ = 1;
  send_control(kSyn | kAck, 0);
  arm_timer();
}

std::size_t TcpSocket::send_buffer_room() const {
  std::size_t buffered = send_buf_.size() - send_buf_base_offset();
  return buffered >= kSendHighWater ? 0 : kSendHighWater - buffered;
}

void TcpSocket::send(Bytes data) {
  if (state_ == State::kClosed || fin_pending_) return;
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  pump();
}

void TcpSocket::close() {
  if (state_ == State::kClosed || fin_pending_) return;
  fin_pending_ = true;
  // Stream length: everything the app has ever queued.
  fin_seq_ = 1 + send_buf_base_ + (send_buf_.size() - send_buf_base_offset());
  pump();
}

void TcpSocket::reset() {
  if (state_ == State::kClosed) return;
  send_control(kRst, snd_nxt_);
  finish(true);
}

std::uint64_t TcpSocket::snd_limit() const {
  std::uint64_t window = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cwnd_), peer_window_);
  return snd_una_ + std::max<std::uint64_t>(window, config_.mss);
}

void TcpSocket::pump() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;

  // Stream offset one past the last byte the app has queued.
  std::uint64_t stream_end =
      send_buf_base_ + (send_buf_.size() - send_buf_base_offset());
  std::uint64_t seq_end = 1 + stream_end;

  while (snd_nxt_ < seq_end && snd_nxt_ < snd_limit()) {
    std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>({config_.mss, seq_end - snd_nxt_,
                                 snd_limit() - snd_nxt_}));
    if (len == 0) break;
    transmit(snd_nxt_, len, /*rexmit=*/false);
    snd_nxt_ += len;
    if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
  }
  maybe_send_fin();
  if (snd_una_ < snd_nxt_) arm_timer();
}

void TcpSocket::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  if (snd_nxt_ != fin_seq_) return;  // stream not fully transmitted yet
  fin_sent_ = true;
  send_control(kFin | kAck, fin_seq_);
  snd_nxt_ = fin_seq_ + 1;
  if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
  state_ = state_ == State::kCloseWait ? State::kLastAck : State::kFinWait;
  arm_timer();
}

void TcpSocket::transmit(std::uint64_t seq, std::size_t len, bool rexmit) {
  Segment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = static_cast<std::uint32_t>(seq);
  seg.ack = static_cast<std::uint32_t>(rcv_nxt_);
  seg.flags = kAck;
  seg.window = static_cast<std::uint32_t>(config_.recv_window);

  std::size_t idx = send_buf_base_offset() +
                    static_cast<std::size_t>((seq - 1) - send_buf_base_);
  seg.payload = BytesView(send_buf_).subspan(idx, len);

  ++stats_.segments_sent;
  if (rexmit) {
    ++stats_.retransmits;
  } else {
    stats_.bytes_sent += len;
    if (!rtt_probe_) {
      rtt_probe_ = {seq + len, stack_.timers().now()};
    }
  }
  stack_.send_segment(remote_ip_, seg);
}

void TcpSocket::send_control(std::uint8_t flags, std::uint64_t seq) {
  Segment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = static_cast<std::uint32_t>(seq);
  seg.ack = static_cast<std::uint32_t>(rcv_nxt_);
  seg.flags = flags;
  seg.window = static_cast<std::uint32_t>(config_.recv_window);
  ++stats_.segments_sent;
  stack_.send_segment(remote_ip_, seg);
}

void TcpSocket::send_ack() { send_control(kAck, snd_nxt_); }

void TcpSocket::send_pending_ack() {
  unacked_segments_ = 0;
  stack_.timers().cancel(delack_timer_);
  delack_timer_ = {};
  send_ack();
}

void TcpSocket::arm_timer() {
  stack_.timers().cancel(rto_timer_);
  auto weak = weak_from_this();
  rto_timer_ = stack_.timers().schedule(rto_, [weak] {
    if (auto self = weak.lock()) self->on_rto();
  });
}

void TcpSocket::on_rto() {
  if (state_ == State::kClosed) return;
  if (snd_una_ >= snd_nxt_) return;  // everything acked meanwhile
  ++stats_.timeouts;
  ++rexmit_count_;
  if (rexmit_count_ > kMaxRetransmits) {
    finish(true);
    return;
  }

  // Karn: never sample RTT across a retransmission.
  rtt_probe_.reset();

  // Multiplicative backoff, capped so post-migration recovery is quick.
  rto_ = std::min(rto_ * 2, kMaxRto);
  double inflight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(inflight / 2.0, 2.0 * static_cast<double>(config_.mss));
  cwnd_ = static_cast<double>(config_.mss);
  dup_acks_ = 0;

  if (snd_una_ == 0) {
    // Handshake segment lost.
    send_control(state_ == State::kSynReceived ? (kSyn | kAck) : kSyn, 0);
  } else {
    // Go-back-N: rewind the send point to the first unacknowledged byte
    // and let pump() re-send the window.  Everything up to the old
    // snd_nxt_ is still in the send buffer (trimmed only on ACK), and a
    // receiver that did get some of it re-ACKs duplicates harmlessly.
    // A pre-rewind FIN will be re-sent by maybe_send_fin().
    snd_nxt_ = snd_una_;
    ++stats_.retransmits;
    if (fin_sent_ && snd_una_ <= fin_seq_) {
      fin_sent_ = false;
      if (state_ == State::kFinWait) state_ = State::kEstablished;
      if (state_ == State::kLastAck) state_ = State::kCloseWait;
    }
    recovery_point_ = 0;
    pump();
  }
  arm_timer();
}

void TcpSocket::update_rtt(SimDuration sample) {
  rtt_update(srtt_, rttvar_, sample);
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

void TcpSocket::on_ack(std::uint64_t ack, std::uint32_t wnd) {
  peer_window_ = wnd;
  if (ack > snd_max_) return;  // nonsense: beyond anything we ever sent
  if (ack > snd_nxt_) {
    // We rewound after a (spurious) timeout, but data in flight from
    // before the rewind reached the receiver: fast-forward.
    snd_nxt_ = ack;
  }
  if (ack <= snd_una_) {
    // Duplicate ACK while data is outstanding → fast retransmit.
    if (ack == snd_una_ && snd_nxt_ > snd_una_ &&
        state_ == State::kEstablished) {
      if (++dup_acks_ == 3) {
        ++stats_.fast_retransmits;
        double inflight = static_cast<double>(snd_nxt_ - snd_una_);
        ssthresh_ = std::max(inflight / 2.0,
                             2.0 * static_cast<double>(config_.mss));
        cwnd_ = ssthresh_;
        recovery_point_ = snd_nxt_;
        std::uint64_t hi = std::min<std::uint64_t>(
            snd_una_ + config_.mss, std::min(snd_nxt_, fin_seq_));
        if (snd_una_ == 0) {
          send_control(state_ == State::kSynReceived ? (kSyn | kAck) : kSyn,
                       0);
        } else if (fin_sent_ && snd_una_ == fin_seq_) {
          send_control(kFin | kAck, fin_seq_);
        } else if (hi > snd_una_) {
          transmit(snd_una_, static_cast<std::size_t>(hi - snd_una_), true);
        }
      }
    }
    return;
  }

  // New data acknowledged.
  std::uint64_t newly = ack - snd_una_;
  dup_acks_ = 0;
  rexmit_count_ = 0;
  snd_una_ = ack;

  // NewReno partial ACK: still in fast-recovery with a hole left —
  // retransmit the next block without waiting for more dup-ACKs.
  if (recovery_point_ != 0 && snd_una_ < recovery_point_ &&
      snd_una_ < snd_nxt_ && snd_una_ >= 1) {
    std::uint64_t hi = std::min<std::uint64_t>(snd_una_ + config_.mss,
                                               std::min(snd_nxt_, fin_seq_));
    if (fin_sent_ && snd_una_ == fin_seq_) {
      send_control(kFin | kAck, fin_seq_);
    } else if (hi > snd_una_) {
      transmit(snd_una_, static_cast<std::size_t>(hi - snd_una_), true);
    }
  }
  if (recovery_point_ != 0 && snd_una_ >= recovery_point_) {
    recovery_point_ = 0;
  }

  if (rtt_probe_ && ack >= rtt_probe_->first) {
    update_rtt(stack_.timers().now() - rtt_probe_->second);
    rtt_probe_.reset();
  }

  // Congestion control: slow start below ssthresh, then AIMD.
  double mss = static_cast<double>(config_.mss);
  if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(newly);
  } else {
    cwnd_ += mss * mss / cwnd_;
  }

  // Trim acked stream bytes from the send buffer.
  std::uint64_t acked_stream = std::min(ack - 1, fin_seq_ == kNoFin
                                                     ? ack - 1
                                                     : fin_seq_ - 1);
  if (ack >= 1 && acked_stream > send_buf_base_) {
    std::size_t buffered_before = send_buf_.size() - send_buf_base_offset();
    std::uint64_t advance = acked_stream - send_buf_base_;
    stats_.bytes_acked += advance;
    send_buf_consumed_ += static_cast<std::size_t>(advance);
    send_buf_base_ = acked_stream;
    if (send_buf_consumed_ > kSendHighWater) {
      send_buf_.erase(send_buf_.begin(),
                      send_buf_.begin() +
                          static_cast<std::ptrdiff_t>(send_buf_consumed_));
      send_buf_consumed_ = 0;
    }
    std::size_t buffered_now = send_buf_.size() - send_buf_base_offset();
    if (writable_ && buffered_before > kSendLowWater &&
        buffered_now <= kSendLowWater && !fin_pending_) {
      writable_();
    }
  }

  if (snd_una_ >= snd_nxt_) {
    stack_.timers().cancel(rto_timer_);
    rto_timer_ = {};
  } else {
    arm_timer();
  }

  // Our FIN acknowledged?
  if (fin_sent_ && ack > fin_seq_) {
    if (state_ == State::kLastAck ||
        (state_ == State::kFinWait && peer_fin_seen_)) {
      finish(false);
      return;
    }
  }
  pump();
}

void TcpSocket::on_segment(const Segment& seg) {
  if (state_ == State::kClosed) return;
  ++stats_.segments_received;

  if (seg.has(kRst)) {
    finish(true);
    return;
  }

  switch (state_) {
    case State::kSynSent:
      if (seg.has(kSyn) && seg.has(kAck) && seg.ack >= 1) {
        rcv_nxt_ = 1;
        snd_una_ = 1;
        enter_established();
        send_ack();
        pump();
      }
      return;
    case State::kSynReceived:
      if (seg.has(kSyn)) {
        send_control(kSyn | kAck, 0);  // duplicate SYN: re-offer
        return;
      }
      if (seg.has(kAck) && seg.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        enter_established();
        // fall through into normal processing of this segment
        break;
      }
      return;
    default:
      if (seg.has(kSyn)) {
        // Stray SYN on an established connection: peer restarted;
        // a real stack answers with RST.
        send_control(kRst, snd_nxt_);
        finish(true);
        return;
      }
      break;
  }

  if (seg.has(kAck)) on_ack(seg.ack, seg.window);
  if (state_ == State::kClosed) return;

  // Payload processing.
  std::uint64_t seq = seg.seq;
  if (!seg.payload.empty()) {
    if (seq == rcv_nxt_) {
      stats_.bytes_received += seg.payload.size();
      rcv_nxt_ += seg.payload.size();
      // The one copy on the way in: the handler takes its own bytes.
      if (data_handler_) {
        data_handler_(Bytes(seg.payload.begin(), seg.payload.end()));
      }
      deliver_in_order();
      // A handler that reset the socket detached it: nothing more to
      // deliver or acknowledge.
      if (state_ == State::kClosed) return;
      // Delayed ACK: every second in-order segment, else on a timer.
      if (++unacked_segments_ >= 2) {
        send_pending_ack();
      } else if (!delack_timer_.valid()) {
        auto weak = weak_from_this();
        delack_timer_ = stack_.timers().schedule(
            kDelayedAck, [weak] {
              if (auto self = weak.lock()) self->send_pending_ack();
            });
      }
    } else {
      if (seq > rcv_nxt_ && seq < rcv_nxt_ + config_.recv_window) {
        reorder_.try_emplace(seq, seg.payload.begin(), seg.payload.end());
      }
      // Out-of-order (or stale duplicate): immediate ACK so the sender
      // sees dup-ACKs for fast retransmit.
      send_pending_ack();
    }
  }

  if (seg.has(kFin)) {
    std::uint64_t fin_at = seq + seg.payload.size();
    peer_fin_seen_ = true;
    peer_fin_seq_ = fin_at;
  }
  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    send_ack();
    if (state_ == State::kEstablished) {
      state_ = State::kCloseWait;
      // EOF to the application.
      if (closed_ && !eof_notified_) {
        eof_notified_ = true;
        closed_(false);
      }
    } else if (state_ == State::kFinWait && fin_sent_ &&
               snd_una_ > fin_seq_) {
      finish(false);
    }
  }
}

void TcpSocket::deliver_in_order() {
  auto it = reorder_.begin();
  // A data handler may reset the socket; a closed one delivers nothing.
  while (it != reorder_.end() && state_ != State::kClosed) {
    if (it->first > rcv_nxt_) break;
    std::uint64_t seq = it->first;
    Bytes data = std::move(it->second);
    it = reorder_.erase(it);
    if (seq + data.size() <= rcv_nxt_) continue;  // fully duplicate
    std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - seq);
    if (skip > 0) data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(skip));
    stats_.bytes_received += data.size();
    rcv_nxt_ += data.size();
    if (data_handler_) data_handler_(data);
    it = reorder_.begin();  // rcv_nxt_ moved; rescan from the front
  }
}

void TcpSocket::enter_established() {
  state_ = State::kEstablished;
  rexmit_count_ = 0;
  if (established_) established_();
}

void TcpSocket::finish(bool error) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  stack_.timers().cancel(rto_timer_);
  rto_timer_ = {};
  stack_.timers().cancel(delack_timer_);
  delack_timer_ = {};
  if (closed_ && !eof_notified_) {
    eof_notified_ = true;
    closed_(error);
  }
  stack_.detach(*this);
}

// ---------------------------------------------------------------- TcpStack

TcpStack::TcpStack(sim::TimerService& timers, ipop::IpopNode& node,
                   TcpConfig config)
    : timers_(timers), node_(node), config_(config) {
  node_.set_protocol_handler(ipop::IpProto::kTcp,
                             [this](const ipop::IpPacket& packet) {
                               on_ip_packet(packet);
                             });
  if (node_.p2p().node_config().register_node_metrics) {
    metrics_ = &node_.metrics();
    metric_id_ = metrics_->add_callback(
        MetricKind::kCounter, "vtcp_parse_rejects",
        MetricLabels{node_.p2p().brief(), "vtcp"},
        [this] { return static_cast<double>(parse_rejects_); });
  }
}

TcpStack::~TcpStack() {
  if (metrics_ != nullptr) metrics_->remove(metric_id_);
}

void TcpStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

std::shared_ptr<TcpSocket> TcpStack::connect(net::Ipv4Addr dst,
                                             std::uint16_t dst_port) {
  std::uint16_t port = ephemeral_port();
  auto socket = std::shared_ptr<TcpSocket>(
      new TcpSocket(*this, dst, dst_port, port, config_));
  sockets_[ConnKey{dst.value(), dst_port, port}] = socket;
  socket->start_connect();
  return socket;
}

std::uint16_t TcpStack::ephemeral_port() {
  for (int i = 0; i < 20000; ++i) {
    std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 60000 ? 40000
                                 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    bool used = false;
    for (const auto& [key, socket] : sockets_) {
      if (key.local_port == candidate) {
        used = true;
        break;
      }
    }
    if (!used) return candidate;
  }
  return next_ephemeral_;  // pathological; reuse
}

void TcpStack::on_ip_packet(const ipop::IpPacket& packet) {
  auto seg = Segment::parse(packet.payload);
  if (!seg) {
    // Not a well-formed segment (corruption survived the outer layers):
    // reject cleanly and count it.
    ++parse_rejects_;
    return;
  }
  ConnKey key{packet.src.value(), seg->src_port, seg->dst_port};
  if (auto it = sockets_.find(key); it != sockets_.end()) {
    auto socket = it->second;  // keep alive across detach
    socket->on_segment(*seg);
    return;
  }
  if (seg->has(kSyn) && !seg->has(kAck)) {
    auto listener = listeners_.find(seg->dst_port);
    if (listener != listeners_.end()) {
      auto socket = std::shared_ptr<TcpSocket>(new TcpSocket(
          *this, packet.src, seg->src_port, seg->dst_port, config_));
      sockets_[key] = socket;
      socket->start_accept(*seg);
      listener->second(socket);
      return;
    }
  }
  if (!seg->has(kRst)) {
    // No socket, no listener: refuse.
    Segment rst;
    rst.src_port = seg->dst_port;
    rst.dst_port = seg->src_port;
    rst.seq = seg->ack;
    rst.flags = kRst;
    send_segment(packet.src, rst);
  }
}

void TcpStack::send_segment(net::Ipv4Addr dst, const Segment& segment) {
  // The one copy on the way out: from the socket's send buffer into a
  // frame with room for every header below, which IPOP and the overlay
  // write in place.
  FrameBuf frame(Segment::kHeadroom, segment.payload);
  if (!segment.push_header(frame)) return;
  ipop::IpPacket packet;
  packet.dst = dst;
  packet.proto = ipop::IpProto::kTcp;
  node_.send_ip(packet, std::move(frame));
}

void TcpStack::detach(TcpSocket& socket) {
  sockets_.erase(ConnKey{socket.remote_ip().value(), socket.remote_port(),
                         socket.local_port()});
}

}  // namespace wow::vtcp
