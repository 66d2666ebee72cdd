#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "common/time.h"

namespace wow {

/// Identity of a metric instance.  `node` is the emitting instance (a
/// ring-address brief, a host name, or empty for process-wide metrics);
/// `component` is the subsystem: "sim", "node", "linking", "net",
/// "transport", "testbed", ...
struct MetricLabels {
  std::string node;
  std::string component;

  [[nodiscard]] bool operator==(const MetricLabels&) const = default;
  [[nodiscard]] auto operator<=>(const MetricLabels&) const = default;
};

/// How a metric exports: a monotonic count (time series record window
/// deltas), a level (time series record the value), or a histogram.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotonic event count.
class MetricCounter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

using MetricId = std::size_t;

/// Registry of named counters, gauges and histograms, each labelled with
/// {node, component}.  Snapshotable mid-run: a counter or gauge may be
/// a callback evaluated at export time, so registrants expose live
/// state (a `Stats` field, a table size) without copying it on every
/// update.
///
/// Like the tracer, the registry is a pure observer: nothing here
/// consults the RNG or the event queue, so metrics collection cannot
/// perturb a deterministic run.  Export order is registration order,
/// making exports themselves reproducible.
///
/// Lifetimes: counter()/histogram() return references that stay valid
/// for the registry's life (entries are never reallocated).  Callbacks
/// must be removed (remove()) before their captured state dies —
/// components with a shorter life than the registry unregister in their
/// destructor.
class MetricsRegistry {
 public:
  /// Get-or-create a counter.  The same (name, labels) always returns
  /// the same instance.
  MetricCounter& counter(std::string_view name,
                         const MetricLabels& labels = {});

  /// Get-or-create a fixed-bin histogram over [lo, hi).  Bin geometry is
  /// fixed by the first call.
  Histogram& histogram(std::string_view name, const MetricLabels& labels,
                       double lo, double hi, std::size_t bins);

  /// Register a counter or gauge (`kind`; never kHistogram) whose value
  /// is `fn()` at export time; returns an id for remove().  Registering
  /// a live name again replaces its callback (e.g. a rebuilt node).
  MetricId add_callback(MetricKind kind, std::string_view name,
                        const MetricLabels& labels,
                        std::function<double()> fn);

  /// Unregister a metric.  References/callbacks for it become dead; the
  /// id must have come from this registry.
  void remove(MetricId id);

  /// One exported value (callbacks evaluated at snapshot time).
  struct Sample {
    using Kind = MetricKind;
    Kind kind;
    std::string name;
    MetricLabels labels;
    double value = 0.0;            // counter/gauge value, histogram total
    const Histogram* hist = nullptr;  // only for kHistogram
  };

  /// Evaluate every live metric, in registration order.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Zero-copy visitation of every live metric in registration order:
  /// fn(id, kind, name, labels, value, hist), callbacks evaluated at
  /// visit time.  The allocation-free path under MetricsTimeSeries, which
  /// samples hundreds of metrics per window — snapshot() would copy
  /// every name and label pair each time.  Ids are never re-bound to a
  /// different identity (a removed metric's id stays dead), so callers
  /// may cache per-id state across visits.
  void for_each(
      const std::function<void(MetricId, Sample::Kind, std::string_view,
                               const MetricLabels&, double,
                               const Histogram*)>& fn) const;

  /// {"metrics":[{"name":...,"node":...,"component":...,"type":...,
  ///              "value":...}, ...]}
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (histograms as cumulative
  /// _bucket/_count series).  Metric names get a "wow_" prefix.  Each
  /// family (one name) gets one TYPE line followed by all its samples;
  /// families are sorted by name, samples within one keep registration
  /// order.
  [[nodiscard]] std::string to_prometheus() const;

  [[nodiscard]] std::size_t size() const { return live_; }

 private:
  struct Entry {
    Sample::Kind kind;
    std::string name;
    MetricLabels labels;
    MetricCounter counter;
    std::function<double()> read;  // set: the value is read(), not counter
    std::optional<Histogram> hist;
    bool dead = false;
  };

  MetricId find_or_add(Sample::Kind kind, std::string_view name,
                       const MetricLabels& labels);

  /// Deque: stable addresses for counter/histogram references.
  std::deque<Entry> entries_;
  std::map<std::tuple<std::string, MetricLabels>, MetricId> index_;
  std::size_t live_ = 0;
};

/// Windowed time-series recorder over a MetricsRegistry: every sample()
/// call closes one window and appends, per live metric, the interval
/// delta (counters and histogram totals) or the current level (gauges)
/// to a compact in-memory series — turning end-of-run totals into
/// plottable curves.  Histogram windows additionally record p50/p95/p99
/// interpolated from the window's bucket deltas (accuracy = one bucket
/// width).
///
/// The recorder is a pure observer and is deliberately NOT driven by a
/// simulator timer: scheduling sampling events would change the event
/// queue (executed_events, FIFO seq numbers) and void the determinism
/// guarantee.  Drivers call sample(now) from outside the event loop —
/// between run_until() chunks — so instrumented and bare runs execute
/// the exact same event sequence.
///
/// Metrics that appear mid-run (lazily created counters) start their
/// series at the window that first sees them; metrics removed mid-run
/// simply stop extending theirs (every point carries its own t).
class MetricsTimeSeries {
 public:
  explicit MetricsTimeSeries(const MetricsRegistry& registry)
      : registry_(registry) {}

  /// Close the window ending at `now` and append one point per metric.
  void sample(SimTime now);

  struct Point {
    double t = 0.0;      // window end, sim seconds
    double value = 0.0;  // counter/histogram: window delta; gauge: level
    double p50 = 0.0;    // histograms only: window percentiles
    double p95 = 0.0;
    double p99 = 0.0;
  };

  struct Series {
    MetricsRegistry::Sample::Kind kind;
    std::string name;
    MetricLabels labels;
    std::vector<Point> points;
  };

  [[nodiscard]] const std::vector<Series>& series() const {
    return series_;
  }
  [[nodiscard]] std::size_t windows() const { return windows_; }

  /// Long-format CSV: t,name,node,component,kind,value,p50,p95,p99 —
  /// one row per (window, metric), ready for any plotting stack.
  [[nodiscard]] std::string to_csv() const;

  /// Same rows as JSONL records (percentile keys only on histograms).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct State {
    double prev_value = 0.0;
    std::vector<std::size_t> prev_buckets;
  };

  static constexpr std::size_t kNoSeries = static_cast<std::size_t>(-1);

  const MetricsRegistry& registry_;
  std::vector<Series> series_;
  std::vector<State> states_;  // parallel to series_
  /// MetricId -> series index (ids are stable and never re-bound).
  std::vector<std::size_t> id_to_series_;
  std::vector<std::size_t> delta_;  // scratch histogram-window buffer
  std::size_t windows_ = 0;
};

}  // namespace wow
