#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "middleware/cpu.h"
#include "middleware/message_channel.h"
#include "sim/simulator.h"
#include "vtcp/tcp.h"

namespace wow::mw {

/// Round-synchronized master–worker workload in the shape of
/// fastDNAml-PVM (§V-D.2): the master keeps a task pool per round and
/// dispatches tasks dynamically; a round ends when all its tasks have
/// returned (the "select the best tree" synchronization of [48]), after
/// which the master does a short sequential step and opens the next
/// round.
struct PvmWorkload {
  int rounds = 47;
  int tasks_per_round = 45;
  /// Unit-speed seconds per task.  Total sequential work =
  /// rounds * tasks_per_round * task_seconds + rounds * master_seconds.
  double task_seconds = 10.0;
  /// Sequential master work between rounds.
  double master_seconds = 2.0;
  std::uint64_t task_msg_bytes = 20 * 1024;    // tree description out
  std::uint64_t result_msg_bytes = 20 * 1024;  // evaluated tree back

  [[nodiscard]] double sequential_seconds() const {
    return rounds * (tasks_per_round * task_seconds + master_seconds);
  }
};

/// PVM-like master: accepts worker registrations, runs the workload,
/// reports the parallel makespan.
class PvmMaster {
 public:
  static constexpr std::uint16_t kPort = 15002;

  PvmMaster(sim::Simulator& simulator, vtcp::TcpStack& stack,
            PvmWorkload workload);

  /// Start computing once `expected_workers` have registered; `done`
  /// receives the makespan in seconds.
  void run(int expected_workers, std::function<void(double)> done);

  /// Workers that sent their registration (a connection alone does not
  /// count).
  [[nodiscard]] int registered_workers() const;
  [[nodiscard]] int completed_rounds() const { return completed_rounds_; }
  [[nodiscard]] std::uint64_t tasks_dispatched() const {
    return tasks_dispatched_;
  }

 private:
  struct Worker {
    std::shared_ptr<MessageChannel> channel;
    bool busy = false;
    bool registered = false;
  };

  void on_message(std::uint64_t key, const Bytes& message);
  void maybe_begin();
  void begin_round();
  void dispatch();
  void finish_round();

  sim::Simulator& sim_;
  PvmWorkload workload_;
  /// Keyed by accept order, so dispatch order never follows heap
  /// addresses.
  std::map<std::uint64_t, Worker> workers_;
  std::uint64_t next_worker_ = 0;
  int expected_workers_ = 0;
  std::function<void(double)> done_;
  bool running_ = false;
  SimTime start_time_ = 0;
  int completed_rounds_ = 0;
  int tasks_left_in_round_ = 0;     // not yet dispatched
  int results_pending_ = 0;         // dispatched, not yet returned
  std::uint64_t tasks_dispatched_ = 0;
};

/// PVM-like worker: registers with the master and computes tasks.
class PvmWorker {
 public:
  PvmWorker(sim::Simulator& simulator, vtcp::TcpStack& stack,
            CpuExecutor& cpu, net::Ipv4Addr master);

  void start();

 private:
  void on_message(const Bytes& message);

  sim::Simulator& sim_;
  vtcp::TcpStack& stack_;
  CpuExecutor& cpu_;
  net::Ipv4Addr master_;
  std::shared_ptr<MessageChannel> channel_;
};

}  // namespace wow::mw
