#include "apps/bulk_transfer.h"

namespace wow::apps {

BulkSource::BulkSource(sim::TimerService&, vtcp::TcpStack& stack,
                       std::uint16_t port, std::uint64_t bytes)
    : bytes_(bytes) {
  stack.listen(port, [this](std::shared_ptr<vtcp::TcpSocket> socket) {
    serve(std::move(socket));
  });
}

void BulkSource::serve(std::shared_ptr<vtcp::TcpSocket> socket) {
  // Feed the socket in send-buffer-sized slices so arbitrarily large
  // files never sit in memory; writable() pulls the next slice.  The
  // handlers hold the socket weakly: they are stored in the socket, so
  // a strong reference would keep every served socket alive forever.
  auto remaining = std::make_shared<std::uint64_t>(bytes_);
  auto feed = [weak = std::weak_ptr<vtcp::TcpSocket>(socket), remaining] {
    auto socket = weak.lock();
    if (!socket) return;
    while (*remaining > 0) {
      std::size_t room = socket->send_buffer_room();
      if (room == 0) return;
      auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>({*remaining, room, 16384}));
      socket->send(Bytes(n, 0xda));
      *remaining -= n;
    }
    socket->close();
  };
  socket->set_established_handler(feed);
  socket->set_writable_handler(feed);
}

BulkSink::BulkSink(sim::TimerService& timers, vtcp::TcpStack& stack)
    : clock_(timers), stack_(stack) {}

void BulkSink::fetch(net::Ipv4Addr src, std::uint16_t port, Done done) {
  received_ = 0;
  started_ = clock_.now();
  socket_ = stack_.connect(src, port);
  socket_->set_data_handler([this](const Bytes& data) {
    received_ += data.size();
  });
  socket_->set_closed_handler(
      [this, done = std::move(done)](bool) {
        Result result;
        result.bytes = received_;
        result.started = started_;
        result.finished = clock_.now();
        if (done) done(result);
      });
}

}  // namespace wow::apps
