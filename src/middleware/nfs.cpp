#include "middleware/nfs.h"

namespace wow::mw {

namespace {

enum class NfsOp : std::uint8_t { kRead = 1, kWrite = 2, kGetAttr = 3 };

struct Request {
  NfsOp op;
  std::uint32_t xid;
  std::string name;
  std::uint64_t offset;
  std::uint32_t len;
};

[[nodiscard]] Bytes encode_request(const Request& r,
                                   std::uint32_t write_payload = 0) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(r.op));
  w.u32(r.xid);
  w.str(r.name);
  w.u64(r.offset);
  w.u32(r.len);
  // Write payload: synthetic zero bytes sized like the real data.
  for (std::uint32_t i = 0; i < write_payload; ++i) w.u8(0);
  return std::move(w).take();
}

[[nodiscard]] bool valid(NfsOp op) {
  return op >= NfsOp::kRead && op <= NfsOp::kGetAttr;
}

[[nodiscard]] std::optional<Request> decode_request(const Bytes& message) {
  ByteReader r(message);
  Request req;
  req.op = static_cast<NfsOp>(r.u8());
  req.xid = r.u32();
  req.name = r.str();
  req.offset = r.u64();
  req.len = r.u32();
  if (!r.ok() || !valid(req.op)) return std::nullopt;
  return req;
}

struct Reply {
  NfsOp op;
  std::uint32_t xid;
  bool ok;
  std::uint64_t value;  // size for GETATTR, echoed offset otherwise
  std::uint32_t len;
};

[[nodiscard]] Bytes encode_reply(const Reply& r, std::uint32_t data_bytes) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(r.op));
  w.u32(r.xid);
  w.u8(r.ok ? 1 : 0);
  w.u64(r.value);
  w.u32(r.len);
  for (std::uint32_t i = 0; i < data_bytes; ++i) w.u8(0);
  return std::move(w).take();
}

[[nodiscard]] std::optional<Reply> decode_reply(const Bytes& message) {
  ByteReader r(message);
  Reply rep;
  rep.op = static_cast<NfsOp>(r.u8());
  rep.xid = r.u32();
  rep.ok = r.u8() != 0;
  rep.value = r.u64();
  rep.len = r.u32();
  if (!r.ok() || !valid(rep.op)) return std::nullopt;
  return rep;
}

}  // namespace

// ---------------------------------------------------------------- NfsServer

NfsServer::NfsServer(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     std::uint16_t port)
    : sim_(simulator) {
  stack.listen(port, [this](std::shared_ptr<vtcp::TcpSocket> socket) {
    auto channel = MessageChannel::wrap(std::move(socket));
    channels_[channel.get()] = channel;
    auto* key = channel.get();
    channel->set_message_handler([this, key](const Bytes& message) {
      auto it = channels_.find(key);
      if (it != channels_.end()) on_request(it->second, message);
    });
    channel->set_closed_handler([this, key](bool) { channels_.erase(key); });
  });
}

void NfsServer::on_request(const std::shared_ptr<MessageChannel>& channel,
                           const Bytes& message) {
  auto req = decode_request(message);
  if (!req) return;
  switch (req->op) {
    case NfsOp::kGetAttr: {
      auto it = files_.find(req->name);
      bool ok = it != files_.end();
      channel->send(encode_reply(
          Reply{NfsOp::kGetAttr, req->xid, ok, ok ? it->second : 0, 0}, 0));
      return;
    }
    case NfsOp::kRead: {
      auto it = files_.find(req->name);
      if (it == files_.end()) {
        channel->send(
            encode_reply(Reply{NfsOp::kRead, req->xid, false, 0, 0}, 0));
        return;
      }
      std::uint64_t avail =
          req->offset >= it->second ? 0 : it->second - req->offset;
      auto len =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(req->len, avail));
      ++stats_.reads;
      stats_.bytes_read += len;
      channel->send(encode_reply(
          Reply{NfsOp::kRead, req->xid, true, req->offset, len}, len));
      return;
    }
    case NfsOp::kWrite: {
      // Contents are synthetic; grow the file to cover the write.
      std::uint64_t end = req->offset + req->len;
      std::uint64_t& size = files_[req->name];
      size = std::max(size, end);
      ++stats_.writes;
      stats_.bytes_written += req->len;
      channel->send(encode_reply(
          Reply{NfsOp::kWrite, req->xid, true, req->offset, req->len}, 0));
      return;
    }
  }
}

// ---------------------------------------------------------------- NfsClient

NfsClient::NfsClient(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     net::Ipv4Addr server, std::uint16_t port)
    : sim_(simulator), stack_(stack), server_(server), port_(port) {}

void NfsClient::ensure_connected() {
  if (connected_) return;
  channel_ = MessageChannel::wrap(stack_.connect(server_, port_));
  channel_->set_message_handler(
      [this](const Bytes& message) { on_reply(message); });
  channel_->set_closed_handler([this](bool) {
    connected_ = false;
    fail_all();
  });
  connected_ = true;
}

void NfsClient::read_file(const std::string& name, Done done) {
  enqueue(Transfer{.is_read = true, .name = name, .done = std::move(done)});
}

void NfsClient::write_file(const std::string& name, std::uint64_t size,
                           Done done) {
  enqueue(Transfer{.is_read = false,
                   .name = name,
                   .size = size,
                   .size_known = true,
                   .done = std::move(done)});
}

void NfsClient::enqueue(Transfer t) {
  // Refused here, before any request could frame it as "".
  if (!length_fits("NfsClient file name", t.name.size(),
                   ByteWriter::kMaxLenPrefixed)) {
    ++stats_.failures;
    if (t.done) t.done(false);
    return;
  }
  queue_.push_back(std::move(t));
  if (queue_.size() == 1) pump();
}

void NfsClient::pump() {
  if (queue_.empty()) return;
  ensure_connected();
  Transfer& t = queue_.front();

  if (!t.size_known) {
    if (t.outstanding == 0) {
      std::uint32_t xid = next_xid_++;
      pending_[xid] = 0;
      t.outstanding = 1;
      channel_->send(
          encode_request(Request{NfsOp::kGetAttr, xid, t.name, 0, 0}));
    }
    return;
  }

  // Zero-length transfers complete immediately.
  if (t.size == 0 && t.outstanding == 0 && t.acked >= t.size) {
    Done done = std::move(t.done);
    queue_.pop_front();
    if (done) done(true);
    pump();
    return;
  }

  while (t.outstanding < kWindow && t.next_offset < t.size) {
    auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kChunk, t.size - t.next_offset));
    std::uint32_t xid = next_xid_++;
    pending_[xid] = len;
    ++t.outstanding;
    if (t.is_read) {
      channel_->send(encode_request(
          Request{NfsOp::kRead, xid, t.name, t.next_offset, len}));
    } else {
      channel_->send(encode_request(
          Request{NfsOp::kWrite, xid, t.name, t.next_offset, len}, len));
    }
    t.next_offset += len;
  }
}

void NfsClient::on_reply(const Bytes& message) {
  auto reply = decode_reply(message);
  if (!reply) return;
  auto pending = pending_.find(reply->xid);
  if (pending == pending_.end() || queue_.empty()) return;
  pending_.erase(pending);

  Transfer& t = queue_.front();
  --t.outstanding;

  if (!reply->ok) {
    ++stats_.failures;
    Done done = std::move(t.done);
    queue_.pop_front();
    if (done) done(false);
    pump();
    return;
  }

  if (reply->op == NfsOp::kGetAttr) {
    t.size = reply->value;
    t.size_known = true;
    if (t.size == 0) {
      Done done = std::move(t.done);
      queue_.pop_front();
      ++stats_.reads;
      if (done) done(true);
    }
    pump();
    return;
  }

  std::uint64_t chunk = reply->len;
  t.acked += chunk;
  if (t.is_read) {
    stats_.bytes_read += chunk;
  } else {
    stats_.bytes_written += chunk;
  }

  if (t.acked >= t.size && t.outstanding == 0) {
    if (t.is_read) {
      ++stats_.reads;
    } else {
      ++stats_.writes;
    }
    Done done = std::move(t.done);
    queue_.pop_front();
    if (done) done(true);
  }
  pump();
}

void NfsClient::fail_all() {
  pending_.clear();
  std::deque<Transfer> failed;
  failed.swap(queue_);
  for (Transfer& t : failed) {
    ++stats_.failures;
    if (t.done) t.done(false);
  }
}

}  // namespace wow::mw
