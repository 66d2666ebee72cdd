#pragma once

#include <functional>
#include <memory>

#include "common/bytes.h"
#include "vtcp/tcp.h"

namespace wow::mw {

/// Length-prefixed message framing over a TCP socket — the RPC transport
/// every middleware component (PBS, NFS, PVM) shares.  Messages up to
/// kMaxMessageBytes (u32 length prefix).  A longer send() is refused;
/// a received prefix over the cap resets the connection, whose closed
/// handler then reports an error.
class MessageChannel : public std::enable_shared_from_this<MessageChannel> {
 public:
  /// 16 MiB: far above the largest real message (~100 KiB, Table III's
  /// fastDNAml tasks), far below what a hostile prefix could make the
  /// receiver buffer.
  static constexpr std::size_t kMaxMessageBytes = std::size_t{16} << 20;

  using MessageHandler = std::function<void(const Bytes&)>;
  using ClosedHandler = std::function<void(bool error)>;

  static std::shared_ptr<MessageChannel> wrap(
      std::shared_ptr<vtcp::TcpSocket> socket) {
    auto channel =
        std::shared_ptr<MessageChannel>(new MessageChannel(std::move(socket)));
    channel->attach();
    return channel;
  }

  void send(const Bytes& message) {
    if (!length_fits("MessageChannel message", message.size(),
                     kMaxMessageBytes)) {
      return;
    }
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.raw(message);
    socket_->send(std::move(w).take());
  }

  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }
  void set_closed_handler(ClosedHandler handler) {
    closed_ = std::move(handler);
  }

  void close() { socket_->close(); }
  [[nodiscard]] vtcp::TcpSocket& socket() { return *socket_; }

 private:
  explicit MessageChannel(std::shared_ptr<vtcp::TcpSocket> socket)
      : socket_(std::move(socket)) {}

  void attach() {
    auto weak = weak_from_this();
    socket_->set_data_handler([weak](const Bytes& data) {
      if (auto self = weak.lock()) self->on_data(data);
    });
    socket_->set_closed_handler([weak](bool error) {
      if (auto self = weak.lock()) {
        if (self->closed_) self->closed_(error);
      }
    });
  }

  void on_data(const Bytes& data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
    while (true) {
      ByteReader r(buf_);
      const std::uint32_t len = r.u32();
      if (len > kMaxMessageBytes) {
        buf_.clear();
        socket_->reset();
        return;
      }
      BytesView body = r.bytes(len);
      if (!r.ok()) return;  // the prefix or the body is still arriving
      Bytes message(body.begin(), body.end());
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(4 + body.size()));
      if (handler_) handler_(message);
    }
  }

  std::shared_ptr<vtcp::TcpSocket> socket_;
  Bytes buf_;
  MessageHandler handler_;
  ClosedHandler closed_;
};

}  // namespace wow::mw
