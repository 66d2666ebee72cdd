#pragma once

// What a workload hands back to main(): the metrics BENCHMARK.json
// lists (the end-to-end set of an untraced run, or the per-layer set of
// a traced run), extra human-readable lines, and the correctness tally.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wowbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end list, printed by every untraced run.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"rss_mb", "MB"},
};

/// BENCHMARK.json's per_layer list, printed by every traced run; a
/// layer a workload never enters reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.pending_peak", "count"},
    {"net.send_ns", "ns"},
    {"net.datagrams", "count"},
    {"net.datagrams_per_s", "1/s"},
    {"net.drops", "count"},
    {"transport.send_ns", "ns"},
    {"transport.tx_batch_fill", "dgram/call"},
    {"transport.rx_batch_fill", "dgram/call"},
    {"transport.datagrams_per_s", "1/s"},
    {"transport.timer_late_us_p50", "us"},
    {"transport.timer_late_us_p99", "us"},
    {"transport.gen_late_us_p99", "us"},
    {"transport.backlog_drops", "count"},
    {"transport.oversize_drops", "count"},
    {"transport.icmp_errors", "count"},
    {"p2p.forward_ns", "ns"},
    {"p2p.deliver_ns", "ns"},
    {"p2p.control_ns", "ns"},
    {"p2p.timer_ns", "ns"},
    {"p2p.timer_fires", "count"},
    {"p2p.parse_ns_64", "ns"},
    {"p2p.parse_ns_1400", "ns"},
    {"p2p.wire_ns_64", "ns"},
    {"p2p.wire_ns_1400", "ns"},
    {"p2p.hops_per_delivery", "hops"},
    {"p2p.closest_to_ns", "ns"},
    {"p2p.table_size_max", "count"},
    {"p2p.table_size_mean", "count"},
    {"p2p.link_success_ratio", "ratio"},
    {"p2p.ctm_retries", "count"},
    {"p2p.ctm_timeouts", "count"},
    {"p2p.connections_lost", "count"},
    {"p2p.forwarded", "count"},
    {"p2p.delivered", "count"},
    {"p2p.dropped", "count"},
    {"p2p.parse_rejects", "count"},
    {"p2p.converge_sim_s", "s"},
    {"p2p.join_p99_sim_s", "s"},
    {"ipop.sent", "count"},
    {"ipop.received", "count"},
    {"ipop.dropped", "count"},
    {"ipop.ping_ns", "ns"},
    {"vtcp.send_ns", "ns"},
    {"vtcp.segments_sent", "count"},
    {"vtcp.retransmits", "count"},
    {"vtcp.retransmit_ratio", "ratio"},
    {"vtcp.timeouts", "count"},
    {"trace.overhead", "ratio"},
};

class Report {
 public:
  /// Set a listed metric; the name must be in the list this run prints
  /// (a typo is a benchmark bug, so it aborts).
  void set(std::string_view name, double value) {
    for (const MetricSpec& m : list()) {
      if (name == m.name) {
        values_[m.name] = value;
        return;
      }
    }
    std::fprintf(stderr, "wowbench: unknown metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  /// A human-readable line printed above the result (also carries the
  /// per-workload metrics BENCHMARK.json does not list, e.g. goodput).
  void line(std::string text) { lines_.push_back(std::move(text)); }

  /// Count one checked operation; `ok` false is a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      line("FAILED: " + what);
    }
  }

  void set_trace(bool trace) { trace_ = trace; }

  [[nodiscard]] std::span<const MetricSpec> list() const {
    if (trace_) return kPerLayer;
    return kEndToEnd;
  }
  [[nodiscard]] double value(const char* name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  bool trace_ = false;
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::string> lines_;
};

/// Formatting helper for Report::line.
template <typename... Args>
[[nodiscard]] std::string fmt(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// Median and nearest-rank percentile of a sample (0 when empty).
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();


void run_sim_bulk(const Options& opt, Report& report);
void run_sim_flashcrowd(const Options& opt, Report& report);
void run_udp_loopback(const Options& opt, Report& report);

}  // namespace wowbench
