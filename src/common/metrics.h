#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/time.h"

namespace wow {

/// Identity of a metric instance.  `node` is the emitting instance (a
/// ring-address brief, a host name, or empty for process-wide metrics);
/// `component` is the subsystem: "sim", "node", "linking", "net",
/// "ipop", "vtcp", "testbed", ...
struct MetricLabels {
  std::string node;
  std::string component;

  [[nodiscard]] bool operator==(const MetricLabels&) const = default;
};

/// How a metric exports: a monotonic count (time series record window
/// deltas) or a level (time series record the value).
enum class MetricKind { kCounter, kGauge };

using MetricId = std::size_t;

/// Registry of named counters and gauges, each labelled with {node,
/// component}.  Every entry is a callback evaluated at export time over
/// state its registrant owns (a `Stats` field, a table size), so the
/// hot paths keep their plain increments and a snapshot is possible
/// mid-run.
///
/// Like the tracer, the registry is a pure observer: nothing here
/// consults the RNG or the event queue, so metrics collection cannot
/// perturb a deterministic run.  Export order is registration order,
/// making exports themselves reproducible.
///
/// Lifetimes: callbacks must be removed (remove()) before their
/// captured state dies — components with a shorter life than the
/// registry unregister in their destructor.
class MetricsRegistry {
 public:
  /// Register a counter or gauge (`kind`) whose value is `fn()` at
  /// export time; returns an id for remove().  Every call adds its own
  /// entry: two registrants of one (name, labels) both export, and each
  /// one's remove() leaves the other alone.
  MetricId add_callback(MetricKind kind, std::string_view name,
                        const MetricLabels& labels,
                        std::function<double()> fn);

  /// Unregister a metric.  Its callback is dropped; the id must have
  /// come from this registry and is never handed out again.
  void remove(MetricId id);

  /// One exported value (callbacks evaluated at snapshot time).
  struct Sample {
    MetricKind kind;
    std::string name;
    MetricLabels labels;
    double value = 0.0;
  };

  /// Evaluate every live metric, in registration order.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Zero-copy visitation of every live metric in registration order:
  /// fn(id, kind, name, labels, value), callbacks evaluated at visit
  /// time.  The allocation-free path under MetricsTimeSeries, which
  /// samples hundreds of metrics per window — snapshot() would copy
  /// every name and label pair each time.  Ids are never re-bound to a
  /// different identity (a removed metric's id stays dead), so callers
  /// may cache per-id state across visits.
  void for_each(const std::function<void(MetricId, MetricKind,
                                         std::string_view,
                                         const MetricLabels&, double)>& fn)
      const;

  /// {"metrics":[{"name":...,"node":...,"component":...,"type":...,
  ///              "value":...}, ...]}
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format.  Metric names get a "wow_"
  /// prefix.  Each family (one name) gets one TYPE line followed by all
  /// its samples; families are sorted by name, samples within one keep
  /// registration order.
  [[nodiscard]] std::string to_prometheus() const;

  [[nodiscard]] std::size_t size() const { return live_; }

 private:
  /// A removed entry keeps its slot with an empty callback, so ids stay
  /// indices into entries_.
  struct Entry {
    MetricKind kind;
    std::string name;
    MetricLabels labels;
    std::function<double()> read;
  };

  /// Deque: growing it never copies the entries already registered.
  std::deque<Entry> entries_;
  std::size_t live_ = 0;
};

/// Register every counter of a `WOW_COUNTERS` list (common/counters.h)
/// as a `<prefix><field>` counter read through `stats()`, which returns
/// the live struct — or nullptr while there is none, and the counters
/// read 0.  Appends the ids to `ids` for the owner's remove().  Each
/// closure is `stats` plus a member pointer, which std::function stores
/// without allocating when `stats` captures only a pointer.
template <class Source>
void add_counters(MetricsRegistry& registry, std::string_view prefix,
                  const MetricLabels& labels, Source stats,
                  std::vector<MetricId>& ids) {
  using Stats = std::remove_cvref_t<decltype(*stats())>;
  Stats::for_each_counter([&](const char* field,
                              std::uint64_t Stats::*member) {
    ids.push_back(registry.add_callback(
        MetricKind::kCounter, std::string(prefix) + field, labels,
        [stats, member] {
          const Stats* s = stats();
          return s != nullptr ? static_cast<double>(s->*member) : 0.0;
        }));
  });
}

/// Windowed time-series recorder over a MetricsRegistry: every sample()
/// call closes one window and appends, per live metric, the interval
/// delta (counters) or the current level (gauges) to a compact
/// in-memory series — turning end-of-run totals into plottable curves.
///
/// The recorder is a pure observer and is deliberately NOT driven by a
/// simulator timer: scheduling sampling events would change the event
/// queue (executed_events, FIFO seq numbers) and void the determinism
/// guarantee.  Drivers call sample(now) from outside the event loop —
/// between run_until() chunks — so instrumented and bare runs execute
/// the exact same event sequence.
///
/// Metrics that appear mid-run (a node built later) start their series
/// at the window that first sees them; metrics removed mid-run simply
/// stop extending theirs (every point carries its own t).
class MetricsTimeSeries {
 public:
  explicit MetricsTimeSeries(const MetricsRegistry& registry)
      : registry_(registry) {}

  /// Close the window ending at `now` and append one point per metric.
  void sample(SimTime now);

  struct Point {
    double t = 0.0;      // window end, sim seconds
    double value = 0.0;  // counter: window delta; gauge: level
  };

  struct Series {
    MetricKind kind;
    std::string name;
    MetricLabels labels;
    std::vector<Point> points;
  };

  [[nodiscard]] const std::vector<Series>& series() const {
    return series_;
  }
  [[nodiscard]] std::size_t windows() const { return windows_; }

  /// Long-format CSV: t,name,node,component,kind,value — one row per
  /// (window, metric), ready for any plotting stack.
  [[nodiscard]] std::string to_csv() const;

  /// Same rows as JSONL records.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  static constexpr std::size_t kNoSeries = static_cast<std::size_t>(-1);

  const MetricsRegistry& registry_;
  std::vector<Series> series_;
  /// Parallel to series_: a counter's reading at the last window.
  std::vector<double> prev_values_;
  /// MetricId -> series index (ids are stable and never re-bound).
  std::vector<std::size_t> id_to_series_;
  std::size_t windows_ = 0;
};

}  // namespace wow
