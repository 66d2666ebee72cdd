#include "transport/udp_edge.h"

#include <arpa/inet.h>
#include <linux/errqueue.h>
#include <sys/epoll.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wow::transport {

namespace {

[[nodiscard]] sockaddr_in to_sockaddr(const net::Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ep.port);
  sa.sin_addr.s_addr = htonl(ep.ip.value());
  return sa;
}

[[nodiscard]] net::Endpoint from_sockaddr(const sockaddr_in& sa) {
  return net::Endpoint{net::Ipv4Addr{ntohl(sa.sin_addr.s_addr)},
                       ntohs(sa.sin_port)};
}

/// Largest UDP payload of one IPv4 datagram (the 16-bit total length
/// minus the IP and UDP headers).  A GSO run is one datagram to the
/// kernel until it is cut apart, so this caps a run's bytes.
constexpr std::size_t kMaxRunBytes = 0xffff - 20 - 8;
/// Datagrams per GSO run: UDP_MAX_SEGMENTS on older kernels.
constexpr std::size_t kMaxRunSegments = 64;

/// Control space for one UDP_SEGMENT (u16) or UDP_GRO (int) message.
union SegmentControl {
  char buf[CMSG_SPACE(sizeof(int))];
  cmsghdr align;
};

/// The segment size of a UDP_GRO buffer, or 0 if the kernel did not
/// coalesce it.
[[nodiscard]] std::size_t gro_segment_size(msghdr& hdr) {
  for (cmsghdr* cm = CMSG_FIRSTHDR(&hdr); cm != nullptr;
       cm = CMSG_NXTHDR(&hdr, cm)) {
    if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
      int size = 0;
      std::memcpy(&size, CMSG_DATA(cm), sizeof size);
      return size > 0 ? static_cast<std::size_t>(size) : 0;
    }
  }
  return 0;
}

}  // namespace

/// Per-remote view over the shared socket; a map entry, not a socket.
class UdpEdgeFactory::UdpEdge final : public p2p::Edge {
 public:
  UdpEdge(UdpEdgeFactory& factory, net::Endpoint remote)
      : factory_(factory), remote_(remote) {}

  void send(SharedBytes payload) override {
    if (closed_) return;
    factory_.send_to(remote_, std::move(payload));
  }
  void close() override {
    if (closed_) return;
    closed_ = true;
    factory_.edges_.erase(remote_);  // deletes *this
  }
  [[nodiscard]] bool closed() const override { return closed_; }
  [[nodiscard]] Uri local_uri() const override {
    return factory_.local_uri();
  }
  [[nodiscard]] Uri remote_uri() const override {
    return Uri{TransportKind::kUdp, remote_};
  }
  void set_receiver(Receiver receiver) override {
    receiver_ = std::move(receiver);
  }

  Receiver receiver_;

 private:
  UdpEdgeFactory& factory_;
  net::Endpoint remote_;
  bool closed_ = false;
};

UdpEdgeFactory::UdpEdgeFactory(RealtimeEventLoop& loop,
                               net::Ipv4Addr advertise_ip)
    : loop_(loop), advertise_ip_(advertise_ip) {}

UdpEdgeFactory::~UdpEdgeFactory() { close(); }

void UdpEdgeFactory::bind(std::uint16_t port) {
  if (is_open()) close();
  adverts_.forget();

  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    std::perror("wow: udp socket");
    return;
  }
  // No SO_REUSEADDR: on Linux it lets every UDP socket that sets it
  // bind the same port, and unicast then reaches only one of them.  A
  // second daemon on a taken port must fail here instead.  UDP has no
  // TIME_WAIT, so rebinding after close() needs no such option.
  int on = 1;
  // Route ICMP unreachables back through the error queue instead of
  // failing some later unrelated send with a stale errno.
  setsockopt(fd_, IPPROTO_IP, IP_RECVERR, &on, sizeof on);
  // Receive runs of datagrams as one buffer.  Where this fails (an old
  // kernel) every buffer is one datagram, through the same split loop.
  setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof on);
  // Coalesce sends only where the kernel knows UDP_SEGMENT (Linux 4.18
  // on): an older one ignores the control message without an error and
  // sends a whole run as one datagram.
  int segment = 0;
  socklen_t segment_len = sizeof segment;
  gso_refused_size_ =
      getsockopt(fd_, SOL_UDP, UDP_SEGMENT, &segment, &segment_len) == 0
          ? kMaxDatagram + 1
          : 0;

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    std::perror("wow: udp bind");
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof sa;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len);
  port_ = ntohs(sa.sin_port);

  if (!recv_ring_) {
    recv_ring_ = std::make_unique_for_overwrite<std::uint8_t[]>(
        kRecvSlots * kRecvSlotBytes);
  }
  loop_.watch_fd(fd_, [this](std::uint32_t events) { on_ready(events); });
  flusher_token_ = loop_.add_flusher([this] { flush(); });
}

void UdpEdgeFactory::close() {
  if (!is_open()) return;
  if (retry_timer_.valid()) {
    loop_.cancel(retry_timer_);
    retry_timer_ = {};
  }
  loop_.remove_flusher(flusher_token_);
  loop_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  pending_.clear();
}

void UdpEdgeFactory::send_to(const net::Endpoint& dst, SharedBytes payload) {
  if (!is_open() || payload.size() > kMaxDatagram) return;
  if (pending_.size() >= kMaxBacklog) {
    ++stats_.dropped_backlog;
    return;
  }
  pending_.emplace_back(dst, std::move(payload));
  if (pending_.size() >= kSendBatch) flush();
}

std::size_t UdpEdgeFactory::run_length(std::size_t first,
                                       std::size_t cap) const {
  const auto& [dst, head] = pending_[first];
  std::size_t segment = head.size();
  if (segment == 0 || segment >= gso_refused_size_) return 1;
  cap = std::min({cap, kMaxRunSegments, pending_.size() - first});
  std::size_t n = 1;
  std::size_t bytes = segment;
  while (n < cap) {
    const auto& [next_dst, next] = pending_[first + n];
    if (next_dst != dst || next.empty() || next.size() > segment ||
        bytes + next.size() > kMaxRunBytes) {
      break;
    }
    bytes += next.size();
    ++n;
    if (next.size() < segment) break;  // only the last may be shorter
  }
  return n;
}

void UdpEdgeFactory::flush() {
  if (fd_ < 0 || pending_.empty()) return;
  std::size_t done = 0;
  bool blocked = false;
  // Synchronous refusals are reported only once the queue is compacted:
  // a handler may close this factory or queue (and so flush) more.
  std::vector<std::pair<net::Endpoint, int>> refused;
  // A run the kernel refused as one message leaves one datagram at a
  // time up to here; `probe` is its segment size until the first of
  // those singles shows whether GSO or the destination was at fault.
  std::size_t singles_end = 0;
  std::size_t probe = 0;

  while (done < pending_.size() && !blocked) {
    sockaddr_in addrs[kSendBatch];
    iovec iovs[kSendBatch];
    mmsghdr msgs[kSendBatch];
    SegmentControl controls[kSendBatch];
    std::size_t counts[kSendBatch];
    std::size_t n_msgs = 0;
    std::size_t n_iovs = 0;
    while (done + n_iovs < pending_.size() && n_iovs < kSendBatch) {
      std::size_t first = done + n_iovs;
      std::size_t count =
          first < singles_end ? 1 : run_length(first, kSendBatch - n_iovs);
      msgs[n_msgs] = {};
      msghdr& hdr = msgs[n_msgs].msg_hdr;
      addrs[n_msgs] = to_sockaddr(pending_[first].first);
      hdr.msg_name = &addrs[n_msgs];
      hdr.msg_namelen = sizeof addrs[n_msgs];
      hdr.msg_iov = &iovs[n_iovs];
      hdr.msg_iovlen = count;
      for (std::size_t k = 0; k < count; ++k) {
        const SharedBytes& payload = pending_[first + k].second;
        // sendmmsg only reads the buffer; the const_cast never mutates.
        iovs[n_iovs + k] = {const_cast<std::uint8_t*>(payload.data()),
                            payload.size()};
      }
      if (count > 1) {
        hdr.msg_control = controls[n_msgs].buf;
        hdr.msg_controllen = CMSG_SPACE(sizeof(std::uint16_t));
        cmsghdr* cm = CMSG_FIRSTHDR(&hdr);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        auto segment =
            static_cast<std::uint16_t>(pending_[first].second.size());
        std::memcpy(CMSG_DATA(cm), &segment, sizeof segment);
      }
      counts[n_msgs++] = count;
      n_iovs += count;
    }

    int sent = sendmmsg(fd_, msgs, static_cast<unsigned>(n_msgs), 0);
    if (sent < 0) {
      int err = errno;
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        blocked = true;
        break;
      }
      // The kernel refuses GSO with EINVAL (segment over the path MTU,
      // SO_NO_CHECK) or EIO (no checksum offload): send the run again
      // one datagram at a time.
      if (counts[0] > 1 && (err == EINVAL || err == EIO)) {
        singles_end = done + counts[0];
        probe = pending_[done].second.size();
        continue;
      }
      // sendmmsg fails on its FIRST message: drop that message's first
      // datagram, keep the rest moving, and report it below.
      ++stats_.send_errors;
      refused.emplace_back(pending_[done].first, err);
      ++done;
      probe = 0;  // the destination, not GSO, refused it
      continue;
    }
    if (probe != 0) {
      gso_refused_size_ = std::min(gso_refused_size_, probe);
      probe = 0;
    }
    ++stats_.send_batches;
    for (int m = 0; m < sent; ++m) {
      stats_.datagrams_sent += counts[m];
      if (counts[m] > 1) ++stats_.coalesced_sends;
      done += counts[m];
    }
    // A short count means a later message hit an error or a full
    // buffer; the next call reports which.
  }

  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(done));
  if (blocked && !pending_.empty() && !retry_timer_.valid()) {
    retry_timer_ = loop_.schedule(kMillisecond, [this] {
      retry_timer_ = {};
      flush();
    });
  }
  for (const auto& [remote, err] : refused) {
    if (fd_ < 0) return;  // a handler closed us
    handle_socket_error(remote, err);
  }
}

void UdpEdgeFactory::on_ready(std::uint32_t events) {
  // EPOLLERR means the error queue has ICMP reports; drain those first
  // so edge closes precede the delivery of unrelated datagrams.
  if ((events & EPOLLERR) != 0) drain_error_queue();
  if ((events & EPOLLIN) != 0) drain_socket();
}

void UdpEdgeFactory::drain_socket() {
  for (;;) {
    sockaddr_in addrs[kRecvSlots];
    iovec iovs[kRecvSlots];
    mmsghdr msgs[kRecvSlots];
    SegmentControl controls[kRecvSlots];
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t i = 0; i < kRecvSlots; ++i) {
      iovs[i] = {recv_ring_.get() + i * kRecvSlotBytes, kRecvSlotBytes};
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_control = controls[i].buf;
      msgs[i].msg_hdr.msg_controllen = sizeof controls[i].buf;
    }
    int n = recvmmsg(fd_, msgs, kRecvSlots, 0, nullptr);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    ++stats_.recv_batches;
    for (int i = 0; i < n; ++i) {
      msghdr& hdr = msgs[i].msg_hdr;
      if ((hdr.msg_flags & (MSG_TRUNC | MSG_CTRUNC)) != 0) {
        ++stats_.dropped_oversize;
        continue;
      }
      std::size_t len = msgs[i].msg_len;
      std::size_t segment = gro_segment_size(hdr);
      if (segment == 0 || segment > len) segment = len;
      if (segment == 0) {  // an empty datagram
        ++stats_.dropped_oversize;
        continue;
      }
      if (segment < len) ++stats_.coalesced_receives;
      net::Endpoint src = from_sockaddr(addrs[i]);
      const std::uint8_t* base =
          recv_ring_.get() + static_cast<std::size_t>(i) * kRecvSlotBytes;
      for (std::size_t off = 0; off < len; off += segment) {
        std::size_t size = std::min(segment, len - off);
        if (size > kMaxDatagram) {
          ++stats_.dropped_oversize;
          continue;
        }
        // Copied out, so Node's in-place header rewrite owns its buffer.
        SharedBytes frame{Bytes(base + off, base + off + size)};
        ++stats_.datagrams_received;

        auto it = edges_.find(src);
        if (it != edges_.end() && it->second->receiver_) {
          it->second->receiver_(std::move(frame));
        } else {
          deliver(src, std::move(frame));
        }
        if (fd_ < 0) return;  // a handler closed us mid-batch
      }
    }
    if (n < static_cast<int>(kRecvSlots)) return;
  }
}

void UdpEdgeFactory::drain_error_queue() {
  for (;;) {
    sockaddr_in sa{};
    char control[512];
    char dummy[1];
    iovec iov{dummy, sizeof dummy};
    msghdr msg{};
    msg.msg_name = &sa;
    msg.msg_namelen = sizeof sa;
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    if (recvmsg(fd_, &msg, MSG_ERRQUEUE | MSG_DONTWAIT) < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: queue drained
    }
    for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
         cm = CMSG_NXTHDR(&msg, cm)) {
      if (cm->cmsg_level != IPPROTO_IP || cm->cmsg_type != IP_RECVERR) {
        continue;
      }
      sock_extended_err err{};
      std::memcpy(&err, CMSG_DATA(cm), sizeof err);
      ++stats_.icmp_errors;
      // msg_name carries the original destination of the failed send.
      handle_socket_error(from_sockaddr(sa),
                          static_cast<int>(err.ee_errno));
    }
    if (fd_ < 0) return;
  }
}

void UdpEdgeFactory::handle_socket_error(const net::Endpoint& remote,
                                         int err) {
  p2p::DisconnectCause cause = classify_socket_error(err);
  auto it = edges_.find(remote);
  if (it != edges_.end()) {
    // The kernel told us this remote is gone; the edge handle dies with
    // it (matching the Edge contract: references valid until close).
    edges_.erase(it);
  }
  if (error_handler_) error_handler_(remote, cause, err);
}

p2p::DisconnectCause UdpEdgeFactory::classify_socket_error(int err) {
  switch (err) {
    // ICMP port unreachable: the host answered, nothing is listening.
    // The daemon exited — morally a close frame, not a flaky link.
    case ECONNREFUSED:
      return p2p::DisconnectCause::kCloseFrame;
    case EHOSTUNREACH:
    case ENETUNREACH:
    case ENETDOWN:
    case EHOSTDOWN:
    case ETIMEDOUT:
    case EMSGSIZE:
    default:
      return p2p::DisconnectCause::kLinkError;
  }
}

p2p::Edge& UdpEdgeFactory::edge_to(const net::Endpoint& remote) {
  auto it = edges_.find(remote);
  if (it == edges_.end()) {
    it = edges_.emplace(remote, std::make_unique<UdpEdge>(*this, remote))
             .first;
  }
  return *it->second;
}

}  // namespace wow::transport
