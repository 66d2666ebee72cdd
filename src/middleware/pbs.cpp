#include "middleware/pbs.h"

#include <algorithm>

namespace wow::mw {

namespace {

enum class PbsMsg : std::uint8_t {
  kRegister = 1,  // worker -> head: str name
  kRun = 2,       // head -> worker: job spec
  kDone = 3,      // worker -> head: u64 job id
};

[[nodiscard]] Bytes encode_register(const std::string& name) {
  ByteWriter w;
  w.reserve(3 + name.size());  // type, u16 length, name
  w.u8(static_cast<std::uint8_t>(PbsMsg::kRegister));
  w.str(name);
  return std::move(w).take();
}

[[nodiscard]] Bytes encode_run(const JobSpec& spec) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(PbsMsg::kRun));
  w.u64(spec.id);
  w.u64(static_cast<std::uint64_t>(spec.work_seconds * 1e6));
  w.u64(spec.input_bytes);
  w.u64(spec.output_bytes);
  return std::move(w).take();
}

[[nodiscard]] Bytes encode_done(std::uint64_t id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(PbsMsg::kDone));
  w.u64(id);
  return std::move(w).take();
}

[[nodiscard]] std::string input_file(std::uint64_t id) {
  return std::string("job").append(std::to_string(id)).append(".in");
}
[[nodiscard]] std::string output_file(std::uint64_t id) {
  return std::string("job").append(std::to_string(id)).append(".out");
}

}  // namespace

// ---------------------------------------------------------------- PbsServer

PbsServer::PbsServer(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     NfsServer& nfs)
    : sim_(simulator), nfs_(nfs) {
  stack.listen(kPort, [this](std::shared_ptr<vtcp::TcpSocket> socket) {
    auto channel = MessageChannel::wrap(std::move(socket));
    std::uint64_t key = next_worker_++;
    workers_[key] = Worker{"", channel, std::nullopt};
    channel->set_message_handler(
        [this, key](const Bytes& message) { on_message(key, message); });
    channel->set_closed_handler([this, key](bool) {
      // Worker connection lost: requeue its job, drop the slot.
      auto it = workers_.find(key);
      if (it != workers_.end()) {
        if (it->second.running) queue_.push_front(*it->second.running);
        workers_.erase(it);
        dispatch();
      }
    });
  });
}

void PbsServer::qsub(JobSpec spec) {
  JobRecord record;
  record.spec = spec;
  record.submitted = sim_.now();
  if (!first_submit_) first_submit_ = record.submitted;
  nfs_.create_file(input_file(spec.id), spec.input_bytes);
  queue_.push_back(std::move(record));
  dispatch();
}

void PbsServer::dispatch() {
  while (!queue_.empty()) {
    Worker* free_worker = nullptr;
    for (auto& [key, worker] : workers_) {
      if (!worker.name.empty() && !worker.running) {
        free_worker = &worker;
        break;
      }
    }
    if (free_worker == nullptr) return;
    JobRecord record = std::move(queue_.front());
    queue_.pop_front();
    record.started = sim_.now();
    record.worker = free_worker->name;
    free_worker->running = record;
    free_worker->channel->send(encode_run(record.spec));
  }
}

void PbsServer::on_message(std::uint64_t key, const Bytes& message) {
  auto it = workers_.find(key);
  if (it == workers_.end()) return;
  Worker& worker = it->second;
  ByteReader r(message);
  switch (static_cast<PbsMsg>(r.u8())) {
    case PbsMsg::kRegister: {
      std::string name = r.str();
      if (!r.ok()) return;
      worker.name = std::move(name);
      dispatch();
      return;
    }
    case PbsMsg::kDone: {
      const std::uint64_t id = r.u64();
      if (!r.ok() || !worker.running || worker.running->spec.id != id) return;
      JobRecord record = *worker.running;
      worker.running.reset();
      record.finished = sim_.now();
      completed_.push_back(record);
      if (on_complete_) on_complete_(record);
      dispatch();
      return;
    }
    case PbsMsg::kRun:
      return;  // head never receives RUN
  }
}

std::size_t PbsServer::registered_workers() const {
  return static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const auto& kv) { return !kv.second.name.empty(); }));
}

double PbsServer::throughput_jobs_per_minute() const {
  if (completed_.empty() || !first_submit_) return 0.0;
  SimTime last = 0;
  for (const JobRecord& r : completed_) last = std::max(last, r.finished);
  double span = to_seconds(last - *first_submit_);
  if (span <= 0) return 0.0;
  return static_cast<double>(completed_.size()) / span * 60.0;
}

// ---------------------------------------------------------------- PbsWorker

PbsWorker::PbsWorker(sim::Simulator& simulator, vtcp::TcpStack& stack,
                     CpuExecutor& cpu, net::Ipv4Addr head, std::string name)
    : sim_(simulator), stack_(stack), cpu_(cpu), head_(head),
      name_(std::move(name)) {}

void PbsWorker::start() {
  // A name no u16 length can frame never registers (nor connects).
  if (!length_fits("PbsWorker name", name_.size(),
                   ByteWriter::kMaxLenPrefixed)) return;
  nfs_ = std::make_unique<NfsClient>(sim_, stack_, head_);
  channel_ = MessageChannel::wrap(stack_.connect(head_, PbsServer::kPort));
  channel_->set_message_handler(
      [this](const Bytes& message) { on_message(message); });
  channel_->set_closed_handler([this](bool) {
    // Head connection lost (e.g. during our own migration): reconnect
    // after a backoff, as a real MOM would.
    sim_.schedule(5 * kSecond, [this] { start(); });
  });
  channel_->send(encode_register(name_));
}

void PbsWorker::on_message(const Bytes& message) {
  ByteReader r(message);
  if (static_cast<PbsMsg>(r.u8()) != PbsMsg::kRun) return;
  JobSpec spec;
  spec.id = r.u64();
  spec.work_seconds = static_cast<double>(r.u64()) / 1e6;
  spec.input_bytes = r.u64();
  spec.output_bytes = r.u64();
  if (!r.ok()) return;
  run_job(spec);
}

void PbsWorker::run_job(const JobSpec& spec) {
  // Stage in, compute, stage out, report.  Failures (NFS errors during
  // connectivity loss) retry the whole stage after a pause — the
  // client/server middleware tolerance the paper observed (§V-C.2).
  nfs_->read_file(input_file(spec.id), [this, spec](bool ok) {
    if (!ok) {
      sim_.schedule(5 * kSecond, [this, spec] { run_job(spec); });
      return;
    }
    cpu_.execute(spec.work_seconds, [this, spec] {
      nfs_->write_file(output_file(spec.id), spec.output_bytes,
                       [this, spec](bool ok2) {
                         if (!ok2) {
                           sim_.schedule(5 * kSecond, [this, spec] {
                             nfs_->write_file(
                                 output_file(spec.id), spec.output_bytes,
                                 [this, spec](bool) {
                                   channel_->send(encode_done(spec.id));
                                 });
                           });
                           return;
                         }
                         channel_->send(encode_done(spec.id));
                       });
    });
  });
}

}  // namespace wow::mw
