#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/event_queue.h"
#include "sim/timer_service.h"

namespace wow::transport {

/// sim::TimerService over the host's monotonic clock: the backend that
/// turns the protocol stack into a real daemon.  epoll is the single
/// blocking point; a timerfd armed to the earliest pending deadline
/// (TFD_TIMER_ABSTIME, CLOCK_MONOTONIC) wakes the loop for timers, an
/// eventfd wakes it for stop() (async-signal-safe, so SIGTERM handlers
/// can call it directly), and watched sockets wake it for I/O.
///
/// Time is the same int64 microsecond SimTime the simulator uses,
/// counted from loop construction.  Within one dispatch batch now() is
/// frozen at the value read after the epoll wakeup: events scheduled
/// with equal delays from the same handler land on equal deadlines and
/// fire in schedule order (FIFO), exactly like the simulator — which is
/// what lets one contract test cover every backend.
///
/// Pending events live in a sim::EventQueue, the simulator's own queue:
/// scheduling reuses a slot without allocating, cancel() is O(1), and
/// handles are generation-checked slot ids.  That matters here because
/// vtcp re-arms its retransmit timer on every ACK, so almost every
/// timer this loop schedules is cancelled before it fires.
class RealtimeEventLoop final : public sim::TimerService {
 public:
  /// Readiness callback for a watched fd; `events` is the raw epoll
  /// mask (EPOLLIN | EPOLLERR | ...) so UDP sockets can route error
  /// wakeups to their MSG_ERRQUEUE drain.
  using FdHandler = std::function<void(std::uint32_t events)>;

  RealtimeEventLoop();
  ~RealtimeEventLoop() override;
  RealtimeEventLoop(const RealtimeEventLoop&) = delete;
  RealtimeEventLoop& operator=(const RealtimeEventLoop&) = delete;

  // --- sim::TimerService ---------------------------------------------------

  /// Frozen at the post-wakeup read while dispatching; live otherwise.
  [[nodiscard]] SimTime now() const override;
  sim::TimerHandle schedule(SimDuration delay, sim::EventFn fn) override;
  bool cancel(sim::TimerHandle handle) override;

  // --- fd plane ------------------------------------------------------------

  void watch_fd(int fd, FdHandler on_ready);
  void unwatch_fd(int fd);

  /// Register a hook run after every dispatch batch, before the loop
  /// blocks again.  The UDP factory registers its sendmmsg flush here:
  /// every frame queued by the batch of handlers leaves in one syscall.
  /// Returns a token for remove_flusher().
  std::uint64_t add_flusher(std::function<void()> flush);
  void remove_flusher(std::uint64_t token);

  // --- driving -------------------------------------------------------------

  /// Run until stop().
  void run();
  /// Run until the monotonic clock passes `deadline` (or stop()).
  /// Unlike the simulator there is no fast-forward: this really sleeps.
  void run_until(SimTime deadline);
  void run_for(SimDuration delta);

  /// Request run() to return.  Safe from a signal handler or another
  /// thread: an atomic flag plus an eventfd write.
  void stop();

  [[nodiscard]] std::size_t pending_events() const { return queue_.live(); }

 private:
  [[nodiscard]] SimTime real_now() const;
  /// Arm the timerfd for absolute SimTime `when`; kNever disarms.
  void arm_timerfd(SimTime when);
  void dispatch_due();
  void run_flushers();

  static constexpr SimTime kNever = sim::EventQueue::kNever;

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int wake_fd_ = -1;
  std::int64_t epoch_ns_ = 0;          // CLOCK_MONOTONIC at construction
  mutable SimTime cached_now_ = 0;
  bool dispatching_ = false;
  std::atomic<bool> stop_flag_{false};

  sim::EventQueue queue_;
  std::map<int, FdHandler> fds_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> flushers_;
  std::uint64_t next_flusher_ = 1;
};

}  // namespace wow::transport
