#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/trace.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "sim/timer_service.h"

namespace wow::sim {

/// Single-threaded discrete-event simulator.
///
/// Owns the virtual clock, the event queue, the run's RNG and the logger.
/// Every latency in the system — network propagation, router processing,
/// protocol timeouts, job compute time — is an event scheduled here, so a
/// whole WOW testbed run is deterministic given the seed and runs as fast
/// as the host can drain the queue.
///
/// Events scheduled for the same timestamp fire in scheduling order
/// (FIFO), which keeps protocol traces stable across runs.  The queue
/// itself is sim::EventQueue, shared with the realtime backend.
class Simulator final : public TimerService {
 public:
  explicit Simulator(std::uint64_t seed = 1,
                     LogLevel log_level = LogLevel::kWarn);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Logger& logger() { return logger_; }

  /// Run-wide observability hub.  The simulator owns the registry and
  /// tracer so every component reachable from it (they all hold a
  /// Simulator&) can instrument itself without extra plumbing.  Both are
  /// pure observers: attaching a sink or snapshotting metrics never
  /// touches the RNG or the event queue.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& trace() { return trace_; }

  /// Monotonic id for packet-level tracing (delegates to the tracer,
  /// which owns the counter so trace ids exist without a simulator).
  [[nodiscard]] std::uint64_t next_trace_id() {
    return trace_.next_trace_id();
  }

  /// Schedule `fn` to run `delay` from now.  Negative delays clamp to 0
  /// (fire on the next step).
  TimerHandle schedule(SimDuration delay, EventFn fn) override {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule at an absolute simulated time (>= now).  Takes the event
  /// by rvalue so a lambda converts straight into the queue slot with a
  /// single move of its (size-bounded) captures.
  TimerHandle schedule_at(SimTime when, EventFn&& fn) {
    if (when < now_) when = now_;
    return queue_.push(when, std::move(fn));
  }

  /// Cancel a pending event.  Cancelling an already-fired or invalid
  /// handle is a no-op; returns whether something was cancelled.
  bool cancel(TimerHandle handle) override { return queue_.cancel(handle); }

  /// Run one event.  Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or the clock passes `deadline`.
  /// Events at exactly `deadline` run.  The clock is left at the later of
  /// its current value and `deadline`.
  void run_until(SimTime deadline);

  /// Run until the queue drains (use with care: keepalive timers keep a
  /// live overlay's queue non-empty forever).
  void run();

  /// Advance the clock by `delta` running all events in between.
  void run_for(SimDuration delta) { run_until(now_ + delta); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.live(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Cancelled-event tombstones still sitting in the heap (the O(1)
  /// cancel trade-off); queue memory is pending_events + this.  Bounded:
  /// compaction runs once tombstones outnumber live events (and exceed a
  /// floor that keeps tiny queues from compacting constantly).
  [[nodiscard]] std::size_t tombstone_slack() const {
    return queue_.tombstones();
  }

 private:
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  Rng rng_;
  Logger logger_;
  MetricsRegistry metrics_;
  Tracer trace_;
  // Last, so pending callbacks (and whatever their captures own) are
  // destroyed before the rest of the simulator.
  EventQueue queue_;
};

}  // namespace wow::sim
