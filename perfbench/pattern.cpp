#include "pattern.h"

#include <algorithm>
#include <cstring>

namespace wowbench {

using wow::vtcp::TcpSocket;

Pattern::Pattern(std::uint64_t seed) : table_(2 * kPeriod) {
  std::uint64_t x = seed ^ 0x5eed5eed5eed5eedULL;
  for (std::size_t i = 0; i < kPeriod; ++i) {
    x += 0x9e3779b97f4a7c15ULL;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    table_[i] = table_[i + kPeriod] = static_cast<std::uint8_t>(z >> 56);
  }
}

void Pattern::fill(std::uint64_t offset, std::uint64_t salt,
                   std::uint8_t* out, std::size_t n) const {
  while (n > 0) {
    std::size_t pos = static_cast<std::size_t>((offset + salt) % kPeriod);
    std::size_t len = std::min(n, kPeriod);
    std::memcpy(out, &table_[pos], len);
    out += len;
    offset += len;
    n -= len;
  }
}

bool Pattern::matches(std::uint64_t offset, std::uint64_t salt,
                      const std::uint8_t* data, std::size_t n) const {
  while (n > 0) {
    std::size_t pos = static_cast<std::size_t>((offset + salt) % kPeriod);
    std::size_t len = std::min(n, kPeriod);
    if (std::memcmp(data, &table_[pos], len) != 0) return false;
    data += len;
    offset += len;
    n -= len;
  }
  return true;
}

std::uint64_t Pattern::salt(wow::net::Ipv4Addr sink_vip,
                            std::uint16_t sink_port) {
  return (std::uint64_t{sink_vip.value()} * 65537 + sink_port) % kPeriod;
}

PatternSource::PatternSource(wow::vtcp::TcpStack& stack, std::uint16_t port,
                             const Pattern& pattern, std::uint64_t bytes,
                             Ledger* ledger)
    : pattern_(pattern), bytes_(bytes), ledger_(ledger) {
  stack.listen(port, [this](std::shared_ptr<TcpSocket> socket) {
    serve(socket);
  });
}

void accumulate(TcpSocket::Stats& sum, const TcpSocket::Stats& t) {
  sum.bytes_sent += t.bytes_sent;
  sum.bytes_acked += t.bytes_acked;
  sum.bytes_received += t.bytes_received;
  sum.segments_sent += t.segments_sent;
  sum.segments_received += t.segments_received;
  sum.retransmits += t.retransmits;
  sum.fast_retransmits += t.fast_retransmits;
  sum.timeouts += t.timeouts;
}

void PatternSource::serve(const std::shared_ptr<TcpSocket>& socket) {
  std::erase_if(sockets_, [this](const std::shared_ptr<TcpSocket>& s) {
    if (s->state() != TcpSocket::State::kClosed) return false;
    accumulate(closed_, s->stats());
    return true;
  });
  sockets_.push_back(socket);
  // Raw pointer: the socket owns these handlers, so capturing the
  // shared_ptr would keep it alive forever.
  TcpSocket* s = socket.get();
  struct Feed {
    std::uint64_t sent = 0;
    std::uint64_t salt = 0;
  };
  auto feed = std::make_shared<Feed>();
  feed->salt = Pattern::salt(s->remote_ip(), s->remote_port());
  auto pump = [this, s, feed] {
    timed(ledger_, Span::kApp, [&] {
      while (feed->sent < bytes_) {
        std::size_t room = s->send_buffer_room();
        if (room == 0) return;
        auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>({bytes_ - feed->sent, room, 16384}));
        Bytes chunk(n);
        pattern_.fill(feed->sent, feed->salt, chunk.data(), n);
        timed(ledger_, Span::kVtcpSend, [&] { s->send(std::move(chunk)); });
        feed->sent += n;
      }
      s->close();  // idempotent once the FIN is queued
    });
  };
  s->set_established_handler(pump);
  s->set_writable_handler(pump);
}

TcpSocket::Stats PatternSource::stats() const {
  TcpSocket::Stats sum = closed_;
  for (const auto& s : sockets_) accumulate(sum, s->stats());
  return sum;
}

void PatternSink::fetch(wow::net::Ipv4Addr src, std::uint16_t port,
                        std::uint64_t expected) {
  expected_ = expected;
  received_ = 0;
  done_ = error_ = corrupt_ = false;
  socket_ = stack_.connect(src, port);
  salt_ = Pattern::salt(stack_.vip(), socket_->local_port());
  socket_->set_data_handler([this](const Bytes& data) {
    timed(ledger_, Span::kApp, [&] {
      if (!pattern_.matches(received_, salt_, data.data(), data.size())) {
        corrupt_ = true;
      }
      received_ += data.size();
    });
  });
  socket_->set_closed_handler([this](bool error) {
    done_ = true;
    error_ = error;
    if (!error) socket_->close();  // EOF: finish the close handshake
  });
}

}  // namespace wowbench
