#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "middleware/message_channel.h"
#include "sim/simulator.h"
#include "vtcp/tcp.h"

namespace wow::mw {

/// NFS-like file service over the virtual network.
///
/// The paper's PBS jobs "read and write input and output files to an NFS
/// file system mounted from the head node" (§V-D.1); what matters for
/// the experiments is the *traffic* that mounts generate: chunked
/// remote reads/writes whose cost tracks the overlay path quality.  The
/// protocol is a minimal chunked READ/WRITE RPC (32 KiB chunks, a few
/// outstanding, like NFSv3 rsize/wsize over TCP); contents are
/// synthetic zeros, sizes are real.
class NfsServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 2049;

  NfsServer(sim::Simulator& simulator, vtcp::TcpStack& stack,
            std::uint16_t port = kDefaultPort);

  /// Register a file (name + size).  Reads of unknown files fail.
  void create_file(const std::string& name, std::uint64_t size) {
    files_[name] = size;
  }
  [[nodiscard]] std::uint64_t file_size(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second;
  }

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_request(const std::shared_ptr<MessageChannel>& channel,
                  const Bytes& message);

  sim::Simulator& sim_;
  std::map<std::string, std::uint64_t> files_;
  std::map<const MessageChannel*, std::shared_ptr<MessageChannel>> channels_;
  Stats stats_;
};

/// Client side of the NFS mount: whole-file reads and writes, pipelined
/// in fixed-size chunks over one persistent TCP connection.
class NfsClient {
 public:
  static constexpr std::size_t kChunk = 32 * 1024;
  static constexpr int kWindow = 4;  // outstanding RPCs

  using Done = std::function<void(bool ok)>;

  NfsClient(sim::Simulator& simulator, vtcp::TcpStack& stack,
            net::Ipv4Addr server, std::uint16_t port = NfsServer::kDefaultPort);

  /// Fetch `name` (the full registered size); done(ok) on completion.
  /// A name longer than a u16 length can frame fails at once.
  void read_file(const std::string& name, Done done);
  /// Store `size` bytes as `name`; done(ok) on completion.  A name
  /// longer than a u16 length can frame fails at once.
  void write_file(const std::string& name, std::uint64_t size, Done done);

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t failures = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Transfer {
    bool is_read = false;
    std::string name;
    std::uint64_t size = 0;       // known for writes; learnt for reads
    std::uint64_t next_offset = 0;
    std::uint64_t acked = 0;
    int outstanding = 0;
    bool size_known = false;
    Done done;
  };

  void enqueue(Transfer t);
  void ensure_connected();
  void on_reply(const Bytes& message);
  void pump();
  void fail_all();

  sim::Simulator& sim_;
  vtcp::TcpStack& stack_;
  net::Ipv4Addr server_;
  std::uint16_t port_;
  std::shared_ptr<MessageChannel> channel_;
  bool connected_ = false;
  /// One transfer at a time per client (a PBS job's I/O is sequential);
  /// queued requests wait.
  std::deque<Transfer> queue_;
  std::uint32_t next_xid_ = 1;
  std::map<std::uint32_t, std::uint64_t> pending_;  // xid -> chunk bytes
  Stats stats_;
};

}  // namespace wow::mw
