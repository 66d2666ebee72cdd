#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.h"

namespace wow::mw {

/// Single-core compute model of one virtual workstation.
///
/// Work is expressed in seconds-at-unit-speed (the runtime on the
/// testbed's reference 2.4 GHz Xeon); actual runtime scales with the
/// host's relative CPU speed (Table I heterogeneity) and any background
/// load sharing the physical CPU — the lever of the §V-C.2 migration
/// experiment.  Jobs run FIFO, one at a time, like a PBS worker slot.
class CpuExecutor {
 public:
  CpuExecutor(sim::Simulator& simulator, double speed)
      : sim_(simulator), speed_(speed) {}

  CpuExecutor(const CpuExecutor&) = delete;
  CpuExecutor& operator=(const CpuExecutor&) = delete;

  /// Relative speed of a competing background workload (0 = idle host,
  /// 1 = one other CPU-bound process → we run at half speed).  Applies
  /// to work started after the call.
  void set_background_load(double load) { background_load_ = load; }

  /// Set the relative CPU speed (changes when a VM migrates to a
  /// different physical host).  Applies to work started after the call.
  void set_speed(double speed) { speed_ = speed; }
  [[nodiscard]] double speed() const { return speed_; }

  /// Queue `work_seconds` of unit-speed compute; `done` fires when it
  /// finishes.
  void execute(double work_seconds, std::function<void()> done) {
    queue_.push_back(Task{work_seconds, std::move(done)});
    if (!busy_) run_next();
  }

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  struct Task {
    double work;
    std::function<void()> done;
  };

  void run_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    double runtime = task.work / speed_ * (1.0 + background_load_);
    sim_.schedule(from_seconds(runtime),
                  [this, done = std::move(task.done)] {
                    ++completed_;
                    if (done) done();
                    run_next();
                  });
  }

  sim::Simulator& sim_;
  double speed_;
  double background_load_ = 0.0;
  bool busy_ = false;
  std::deque<Task> queue_;
  std::uint64_t completed_ = 0;
};

}  // namespace wow::mw
