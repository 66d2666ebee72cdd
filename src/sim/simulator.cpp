#include "sim/simulator.h"

namespace wow::sim {

Simulator::Simulator(std::uint64_t seed, LogLevel log_level)
    : rng_(seed), logger_(log_level) {
  MetricLabels labels{"", "sim"};
  metrics_.add_callback(MetricKind::kGauge, "sim_pending_events", labels,
                        [this] { return static_cast<double>(queue_.live()); });
  metrics_.add_callback(MetricKind::kGauge, "sim_queue_tombstones", labels,
                        [this] {
                          return static_cast<double>(queue_.tombstones());
                        });
  metrics_.add_callback(MetricKind::kCounter, "sim_executed_events", labels,
                        [this] { return static_cast<double>(executed_); });
  metrics_.add_callback(MetricKind::kGauge, "sim_now_seconds", labels,
                        [this] { return to_seconds(now_); });
  metrics_.add_callback(
      MetricKind::kCounter, "trace_dropped_by_sampling", labels, [this] {
        return static_cast<double>(trace_.dropped_by_sampling());
      });
}

bool Simulator::step() {
  SimTime when = queue_.next_deadline();
  if (when == EventQueue::kNever) return false;
  now_ = when;
  ++executed_;
  queue_.fire_next();
  return true;
}

void Simulator::run_until(SimTime deadline) {
  for (SimTime when;
       (when = queue_.next_deadline()) <= deadline &&
       when != EventQueue::kNever;) {
    now_ = when;
    ++executed_;
    queue_.fire_next();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace wow::sim
