#include "transport/realtime.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace wow::transport {

namespace {

[[nodiscard]] std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

RealtimeEventLoop::RealtimeEventLoop() {
  epoch_ns_ = monotonic_ns();
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

RealtimeEventLoop::~RealtimeEventLoop() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SimTime RealtimeEventLoop::real_now() const {
  return (monotonic_ns() - epoch_ns_) / 1000;
}

SimTime RealtimeEventLoop::now() const {
  if (dispatching_) return cached_now_;
  cached_now_ = real_now();
  return cached_now_;
}

sim::TimerHandle RealtimeEventLoop::schedule(SimDuration delay,
                                             sim::EventFn fn) {
  if (delay < 0) delay = 0;
  return queue_.push(now() + delay, std::move(fn));
}

bool RealtimeEventLoop::cancel(sim::TimerHandle handle) {
  return queue_.cancel(handle);
}

void RealtimeEventLoop::watch_fd(int fd, FdHandler on_ready) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLERR;
  ev.data.fd = fd;
  int op = fds_.count(fd) != 0 ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    std::perror("wow: epoll_ctl add");
    return;
  }
  fds_[fd] = std::move(on_ready);
}

void RealtimeEventLoop::unwatch_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::uint64_t RealtimeEventLoop::add_flusher(std::function<void()> flush) {
  std::uint64_t token = next_flusher_++;
  flushers_.emplace_back(token, std::move(flush));
  return token;
}

void RealtimeEventLoop::remove_flusher(std::uint64_t token) {
  std::erase_if(flushers_,
                [token](const auto& entry) { return entry.first == token; });
}

void RealtimeEventLoop::arm_timerfd(SimTime when) {
  itimerspec spec{};  // zeroed it_value disarms
  if (when != kNever) {
    if (when < 1) when = 1;  // 0 disarms; earliest representable is 1ns
    std::int64_t abs_ns = epoch_ns_ + when * 1000;
    spec.it_value.tv_sec = abs_ns / 1'000'000'000;
    spec.it_value.tv_nsec = abs_ns % 1'000'000'000;
  }
  timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void RealtimeEventLoop::dispatch_due() {
  // Zero-delay events scheduled by a running handler land exactly at
  // cached_now_ and execute in this same batch, matching the
  // simulator's same-timestamp FIFO semantics.
  dispatching_ = true;
  while (queue_.next_deadline() <= cached_now_) queue_.fire_next();
  dispatching_ = false;
}

void RealtimeEventLoop::run_flushers() {
  for (auto& [token, flush] : flushers_) flush();
}

void RealtimeEventLoop::run_until(SimTime deadline) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (!stop_flag_.load(std::memory_order_relaxed)) {
    cached_now_ = real_now();
    if (cached_now_ >= deadline) break;
    dispatch_due();
    run_flushers();
    if (stop_flag_.load(std::memory_order_relaxed)) break;

    SimTime next = queue_.next_deadline();
    if (deadline != kNever && deadline < next) next = deadline;
    arm_timerfd(next);

    int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::perror("wow: epoll_wait");
      break;
    }
    cached_now_ = real_now();
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == timer_fd_ || fd == wake_fd_) {
        std::uint64_t ticks = 0;
        [[maybe_unused]] ssize_t r = ::read(fd, &ticks, sizeof ticks);
        continue;
      }
      // A handler may unwatch a peer fd from the same batch: re-lookup.
      auto it = fds_.find(fd);
      if (it != fds_.end()) it->second(events[i].events);
    }
    dispatch_due();
    run_flushers();
  }
  arm_timerfd(kNever);
  // A stop() consumed by this run must not abort the next one.
  stop_flag_.store(false, std::memory_order_relaxed);
}

void RealtimeEventLoop::run() { run_until(kNever); }

void RealtimeEventLoop::run_for(SimDuration delta) {
  run_until(real_now() + delta);
}

void RealtimeEventLoop::stop() {
  stop_flag_.store(true, std::memory_order_relaxed);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace wow::transport
