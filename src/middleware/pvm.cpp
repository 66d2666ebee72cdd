#include "middleware/pvm.h"

#include <algorithm>

namespace wow::mw {

namespace {

enum class PvmMsg : std::uint8_t {
  kRegister = 1,  // worker -> master
  kTask = 2,      // master -> worker: u64 work µs, u64 result bytes, padding
  kResult = 3,    // worker -> master: padding
};

[[nodiscard]] Bytes encode_simple(PvmMsg type, std::uint64_t padding) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  for (std::uint64_t i = 0; i < padding; ++i) w.u8(0);
  return std::move(w).take();
}

[[nodiscard]] Bytes encode_task(double work_seconds,
                                std::uint64_t result_bytes,
                                std::uint64_t padding) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(PvmMsg::kTask));
  w.u64(static_cast<std::uint64_t>(work_seconds * 1e6));
  w.u64(result_bytes);
  for (std::uint64_t i = 0; i < padding; ++i) w.u8(0);
  return std::move(w).take();
}

}  // namespace

// ---------------------------------------------------------------- PvmMaster

PvmMaster::PvmMaster(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     PvmWorkload workload)
    : sim_(simulator), workload_(workload) {
  stack.listen(kPort, [this](std::shared_ptr<vtcp::TcpSocket> socket) {
    auto channel = MessageChannel::wrap(std::move(socket));
    std::uint64_t key = next_worker_++;
    workers_[key] = Worker{channel, false, false};
    channel->set_message_handler([this, key](const Bytes& message) {
      on_message(key, message);
    });
    channel->set_closed_handler([this, key](bool) { workers_.erase(key); });
  });
}

int PvmMaster::registered_workers() const {
  return static_cast<int>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const auto& kv) { return kv.second.registered; }));
}

void PvmMaster::run(int expected_workers, std::function<void(double)> done) {
  expected_workers_ = expected_workers;
  done_ = std::move(done);
  maybe_begin();
}

void PvmMaster::maybe_begin() {
  if (running_ || done_ == nullptr) return;
  if (registered_workers() < expected_workers_) return;
  running_ = true;
  start_time_ = sim_.now();
  completed_rounds_ = 0;
  begin_round();
}

void PvmMaster::begin_round() {
  tasks_left_in_round_ = workload_.tasks_per_round;
  results_pending_ = 0;
  dispatch();
}

void PvmMaster::dispatch() {
  for (auto& [key, worker] : workers_) {
    if (tasks_left_in_round_ == 0) break;
    if (!worker.registered || worker.busy) continue;
    worker.busy = true;
    --tasks_left_in_round_;
    ++results_pending_;
    ++tasks_dispatched_;
    worker.channel->send(encode_task(workload_.task_seconds,
                                     workload_.result_msg_bytes,
                                     workload_.task_msg_bytes));
  }
}

void PvmMaster::on_message(std::uint64_t key, const Bytes& message) {
  auto it = workers_.find(key);
  if (it == workers_.end()) return;
  ByteReader r(message);
  switch (static_cast<PvmMsg>(r.u8())) {
    case PvmMsg::kRegister:
      it->second.registered = true;
      maybe_begin();
      return;
    case PvmMsg::kResult:
      it->second.busy = false;
      --results_pending_;
      if (tasks_left_in_round_ > 0) {
        dispatch();
      } else if (results_pending_ == 0) {
        finish_round();
      }
      return;
    case PvmMsg::kTask:
      return;  // master never receives TASK
  }
}

void PvmMaster::finish_round() {
  // Sequential master step: pick the best tree before the next round.
  sim_.schedule(from_seconds(workload_.master_seconds), [this] {
    ++completed_rounds_;
    if (completed_rounds_ >= workload_.rounds) {
      running_ = false;
      double makespan = to_seconds(sim_.now() - start_time_);
      if (done_) {
        auto done = std::move(done_);
        done_ = nullptr;
        done(makespan);
      }
      return;
    }
    begin_round();
  });
}

// ---------------------------------------------------------------- PvmWorker

PvmWorker::PvmWorker(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     CpuExecutor& cpu, net::Ipv4Addr master)
    : sim_(simulator), stack_(stack), cpu_(cpu), master_(master) {}

void PvmWorker::start() {
  channel_ = MessageChannel::wrap(stack_.connect(master_, PvmMaster::kPort));
  channel_->set_message_handler(
      [this](const Bytes& message) { on_message(message); });
  channel_->set_closed_handler([this](bool) {
    sim_.schedule(5 * kSecond, [this] { start(); });
  });
  channel_->send(encode_simple(PvmMsg::kRegister, 0));
}

void PvmWorker::on_message(const Bytes& message) {
  ByteReader r(message);
  if (static_cast<PvmMsg>(r.u8()) != PvmMsg::kTask) return;
  const double work = static_cast<double>(r.u64()) / 1e6;
  const std::uint64_t padding = r.u64();
  if (!r.ok()) return;
  cpu_.execute(work, [this, padding] {
    channel_->send(encode_simple(PvmMsg::kResult, padding));
  });
}

}  // namespace wow::mw
