#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "middleware/cpu.h"
#include "middleware/message_channel.h"
#include "middleware/nfs.h"
#include "sim/simulator.h"
#include "vtcp/tcp.h"

namespace wow::mw {

/// A batch job: compute work plus NFS-staged input/output, like the
/// paper's MEME runs (§V-D.1).
struct JobSpec {
  std::uint64_t id = 0;
  /// Sequential runtime at unit CPU speed, in seconds.
  double work_seconds = 0.0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
};

/// Completion record kept by the head node.
struct JobRecord {
  JobSpec spec;
  std::string worker;
  SimTime submitted = 0;
  SimTime started = 0;   // dispatched to a worker
  SimTime finished = 0;
  [[nodiscard]] double wall_seconds() const {
    return to_seconds(finished - started);
  }
  [[nodiscard]] double queue_seconds() const {
    return to_seconds(started - submitted);
  }
};

/// PBS-like head node: job queue, FIFO dispatch to registered workers
/// (one slot each), completion accounting.  Speaks the worker protocol
/// over MessageChannel and serves job files from a co-located NfsServer.
class PbsServer {
 public:
  static constexpr std::uint16_t kPort = 15001;

  PbsServer(sim::Simulator& simulator, vtcp::TcpStack& stack,
            NfsServer& nfs);

  /// Submit a job (qsub).  Input file is registered with the NFS server.
  void qsub(JobSpec spec);

  /// Workers that sent their registration (a connection alone does not
  /// count).
  [[nodiscard]] std::size_t registered_workers() const;
  [[nodiscard]] const std::vector<JobRecord>& completed() const {
    return completed_;
  }
  /// Jobs completed per minute over [first submit, last completion].
  [[nodiscard]] double throughput_jobs_per_minute() const;

  /// Invoked on each completion (experiment probes).
  void set_completion_handler(std::function<void(const JobRecord&)> handler) {
    on_complete_ = std::move(handler);
  }

 private:
  struct Worker {
    std::string name;
    std::shared_ptr<MessageChannel> channel;
    std::optional<JobRecord> running;
  };

  void on_message(std::uint64_t key, const Bytes& message);
  void dispatch();

  sim::Simulator& sim_;
  NfsServer& nfs_;
  std::deque<JobRecord> queue_;
  /// Keyed by accept order, so dispatch order never follows heap
  /// addresses.
  std::map<std::uint64_t, Worker> workers_;
  std::uint64_t next_worker_ = 0;
  std::vector<JobRecord> completed_;
  std::function<void(const JobRecord&)> on_complete_;
  std::optional<SimTime> first_submit_;
};

/// PBS worker (MOM): registers with the head node, runs one job at a
/// time — NFS-read input, compute, NFS-write output, report done.
class PbsWorker {
 public:
  PbsWorker(sim::Simulator& simulator, vtcp::TcpStack& stack,
            CpuExecutor& cpu, net::Ipv4Addr head, std::string name);

  /// Connect and register with the head node.
  void start();

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void on_message(const Bytes& message);
  void run_job(const JobSpec& spec);

  sim::Simulator& sim_;
  vtcp::TcpStack& stack_;
  CpuExecutor& cpu_;
  net::Ipv4Addr head_;
  std::string name_;
  std::shared_ptr<MessageChannel> channel_;
  std::unique_ptr<NfsClient> nfs_;
};

}  // namespace wow::mw
