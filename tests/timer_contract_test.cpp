// The TimerService/Clock contract, run against every backend: the
// discrete-event Simulator and the real-clock RealtimeEventLoop, which
// both keep their timers in one sim::EventQueue.  Any future backend
// joins by adding a driver; the protocol stack is only portable because
// every backend passes the same suite (DESIGN §17).
//
// The realtime backend really sleeps, so delays here are a few
// milliseconds — long enough to order reliably, short enough that the
// suite stays fast.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/timer_service.h"
#include "transport/realtime.h"

namespace wow {
namespace {

/// Adapts one backend to the two operations the contract needs: the
/// TimerService itself and "advance until everything due has fired".
struct Backend {
  virtual ~Backend() = default;
  [[nodiscard]] virtual sim::TimerService& timers() = 0;
  /// Run until at least `duration` of backend time has passed.
  virtual void drive(SimDuration duration) = 0;
};

struct SimulatorBackend final : Backend {
  sim::Simulator sim;
  sim::TimerService& timers() override { return sim; }
  void drive(SimDuration d) override { sim.run_until(sim.now() + d); }
};

struct RealtimeBackend final : Backend {
  transport::RealtimeEventLoop loop;
  sim::TimerService& timers() override { return loop; }
  void drive(SimDuration d) override {
    // Generous margin: CI schedulers can stall the process, and the
    // contract is about ordering, not wall-clock precision.
    loop.run_until(loop.now() + d + 50 * kMillisecond);
  }
};

using BackendFactory = std::unique_ptr<Backend> (*)();

class TimerContractTest : public ::testing::TestWithParam<BackendFactory> {
 protected:
  void SetUp() override { backend_ = GetParam()(); }
  sim::TimerService& timers() { return backend_->timers(); }
  void drive(SimDuration d) { backend_->drive(d); }
  std::unique_ptr<Backend> backend_;
};

TEST_P(TimerContractTest, FiresInDeadlineOrder) {
  std::vector<int> order;
  timers().schedule(9 * kMillisecond, [&] { order.push_back(3); });
  timers().schedule(3 * kMillisecond, [&] { order.push_back(1); });
  timers().schedule(6 * kMillisecond, [&] { order.push_back(2); });
  drive(20 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(TimerContractTest, EqualDeadlinesFireFifo) {
  // Scheduled back-to-back with the same delay from the same context:
  // every backend guarantees schedule-order execution.  (The realtime
  // loop freezes now() per dispatch batch precisely to keep this
  // producible; schedule these from inside a timer so they share one
  // batch.)
  std::vector<int> order;
  timers().schedule(0, [&] {
    for (int i = 0; i < 5; ++i) {
      timers().schedule(4 * kMillisecond, [&order, i] {
        order.push_back(i);
      });
    }
  });
  drive(20 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(TimerContractTest, ZeroDelayFiresWithoutAdvancingPastIt) {
  bool fired = false;
  timers().schedule(0, [&] { fired = true; });
  drive(5 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST_P(TimerContractTest, NegativeDelayClampsToZero) {
  bool fired = false;
  timers().schedule(-5 * kSecond, [&] { fired = true; });
  drive(5 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST_P(TimerContractTest, HandleIsValidAndNonNull) {
  auto handle = timers().schedule(kMillisecond, [] {});
  EXPECT_TRUE(handle.valid());
  EXPECT_NE(handle.id, 0u);
  drive(10 * kMillisecond);
}

TEST_P(TimerContractTest, CancelPendingPreventsFiring) {
  bool fired = false;
  auto handle = timers().schedule(5 * kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(timers().cancel(handle));
  drive(20 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST_P(TimerContractTest, CancelFiredHandleIsNoOp) {
  bool fired = false;
  auto handle = timers().schedule(kMillisecond, [&] { fired = true; });
  drive(10 * kMillisecond);
  ASSERT_TRUE(fired);
  EXPECT_FALSE(timers().cancel(handle));
}

TEST_P(TimerContractTest, CancelNullAndBogusHandlesAreNoOps) {
  EXPECT_FALSE(timers().cancel(sim::TimerHandle{}));
  EXPECT_FALSE(timers().cancel(sim::TimerHandle{0xdeadbeef}));
}

TEST_P(TimerContractTest, CancelIsIdempotent) {
  bool fired = false;
  auto handle = timers().schedule(5 * kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(timers().cancel(handle));
  EXPECT_FALSE(timers().cancel(handle));  // second cancel: no-op
  drive(20 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST_P(TimerContractTest, StaleHandleAfterReuseIsNoop) {
  // The first event fires and frees its queue slot, which the next
  // schedule takes over.  The kept handle must cancel nothing.
  bool first_fired = false;
  auto stale = timers().schedule(kMillisecond, [&] { first_fired = true; });
  drive(10 * kMillisecond);
  ASSERT_TRUE(first_fired);
  bool second_fired = false;
  auto fresh = timers().schedule(kMillisecond, [&] { second_fired = true; });
  EXPECT_NE(fresh.id, stale.id);
  EXPECT_FALSE(timers().cancel(stale));
  drive(10 * kMillisecond);
  EXPECT_TRUE(second_fired);
}

TEST_P(TimerContractTest, SelfCancelFromCallbackIsNoop) {
  // A firing event is no longer pending: cancelling its own handle from
  // inside the callback reports false and disturbs no sibling at the
  // same deadline.
  sim::TimerHandle self{};
  int self_runs = 0;
  bool self_cancelled = true;
  bool sibling_fired = false;
  timers().schedule(0, [&] {
    self = timers().schedule(4 * kMillisecond, [&] {
      ++self_runs;
      self_cancelled = timers().cancel(self);
    });
    timers().schedule(4 * kMillisecond, [&] { sibling_fired = true; });
  });
  drive(20 * kMillisecond);
  EXPECT_EQ(self_runs, 1);
  EXPECT_FALSE(self_cancelled);
  EXPECT_TRUE(sibling_fired);
}

TEST_P(TimerContractTest, RearmChurnFiresOnlyTheLastTimer) {
  // vtcp's retransmit timer: every ACK cancels the pending timeout and
  // arms a fresh one.  10,000 re-arms inside one callback leave one
  // pending event, and it fires exactly once.
  constexpr int kRearms = 10'000;
  int cancelled = 0;
  int fires = 0;
  int fired_arm = -1;
  timers().schedule(0, [&] {
    sim::TimerHandle rto{};
    for (int i = 0; i < kRearms; ++i) {
      if (timers().cancel(rto)) ++cancelled;
      rto = timers().schedule(4 * kMillisecond, [&fires, &fired_arm, i] {
        ++fires;
        fired_arm = i;
      });
    }
  });
  drive(20 * kMillisecond);
  EXPECT_EQ(cancelled, kRearms - 1);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_arm, kRearms - 1);
  drive(20 * kMillisecond);
  EXPECT_EQ(fires, 1);
}

TEST_P(TimerContractTest, InBatchCancelOfLaterSibling) {
  // canceller scheduled BEFORE victim at the same deadline: canceller
  // runs first (FIFO) and the victim must not fire.
  bool victim_fired = false;
  sim::TimerHandle victim{};
  timers().schedule(0, [&] {
    timers().schedule(4 * kMillisecond, [&] { timers().cancel(victim); });
    victim =
        timers().schedule(4 * kMillisecond, [&] { victim_fired = true; });
  });
  drive(20 * kMillisecond);
  EXPECT_FALSE(victim_fired);
}

TEST_P(TimerContractTest, RearmFromCallback) {
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 3) timers().schedule(2 * kMillisecond, tick);
  };
  timers().schedule(2 * kMillisecond, tick);
  drive(30 * kMillisecond);
  EXPECT_EQ(fires, 3);
}

TEST_P(TimerContractTest, NowIsMonotonicAndReachesDeadlines) {
  SimTime start = timers().now();
  SimTime at_fire = -1;
  SimTime scheduled_at = timers().now();
  timers().schedule(5 * kMillisecond, [&] { at_fire = timers().now(); });
  drive(20 * kMillisecond);
  ASSERT_GE(at_fire, 0);
  // The callback never observes a clock earlier than its own deadline.
  EXPECT_GE(at_fire, scheduled_at + 5 * kMillisecond);
  EXPECT_GE(timers().now(), start);
}

TEST_P(TimerContractTest, ZeroDelayChainRunsToCompletion) {
  // A zero-delay event scheduling another zero-delay event must make
  // progress (the whole chain drains) on every backend.
  int depth = 0;
  std::function<void()> step = [&] {
    if (++depth < 10) timers().schedule(0, step);
  };
  timers().schedule(0, step);
  drive(10 * kMillisecond);
  EXPECT_EQ(depth, 10);
}

std::unique_ptr<Backend> make_simulator() {
  return std::make_unique<SimulatorBackend>();
}
std::unique_ptr<Backend> make_realtime() {
  return std::make_unique<RealtimeBackend>();
}

std::string backend_name(
    const ::testing::TestParamInfo<BackendFactory>& info) {
  if (info.param == make_simulator) return "Simulator";
  return "Realtime";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TimerContractTest,
                         ::testing::Values(&make_simulator, &make_realtime),
                         backend_name);

}  // namespace
}  // namespace wow
