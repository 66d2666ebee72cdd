#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/trace.h"

namespace wow {

namespace {

[[nodiscard]] const char* kind_name(MetricsRegistry::Sample::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Sample::Kind::kCounter: return "counter";
    case MetricsRegistry::Sample::Kind::kGauge: return "gauge";
    case MetricsRegistry::Sample::Kind::kHistogram: return "histogram";
  }
  return "?";
}

/// %.17g prints doubles round-trip exactly; integers come out unpadded.
void append_number(std::string& out, double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

}  // namespace

MetricId MetricsRegistry::find_or_add(Sample::Kind kind,
                                      std::string_view name,
                                      const MetricLabels& labels) {
  auto key = std::make_tuple(std::string(name), labels);
  if (auto it = index_.find(key); it != index_.end()) return it->second;
  Entry entry;
  entry.kind = kind;
  entry.name = std::string(name);
  entry.labels = labels;
  entries_.push_back(std::move(entry));
  index_.emplace(std::move(key), entries_.size() - 1);
  ++live_;
  return entries_.size() - 1;
}

MetricCounter& MetricsRegistry::counter(std::string_view name,
                                        const MetricLabels& labels) {
  return entries_[find_or_add(Sample::Kind::kCounter, name, labels)].counter;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const MetricLabels& labels, double lo,
                                      double hi, std::size_t bins) {
  Entry& entry = entries_[find_or_add(Sample::Kind::kHistogram, name, labels)];
  if (!entry.hist) entry.hist.emplace(lo, hi, bins);
  return *entry.hist;
}

MetricId MetricsRegistry::add_callback(MetricKind kind, std::string_view name,
                                       const MetricLabels& labels,
                                       std::function<double()> fn) {
  MetricId id = find_or_add(kind, name, labels);
  entries_[id].kind = kind;
  entries_[id].read = std::move(fn);
  return id;
}

void MetricsRegistry::remove(MetricId id) {
  if (id >= entries_.size() || entries_[id].dead) return;
  Entry& entry = entries_[id];
  entry.dead = true;
  entry.read = nullptr;
  index_.erase(std::make_tuple(entry.name, entry.labels));
  --live_;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(live_);
  for_each([&](MetricId, Sample::Kind kind, std::string_view name,
               const MetricLabels& labels, double value,
               const Histogram* hist) {
    out.push_back(Sample{kind, std::string(name), labels, value, hist});
  });
  return out;
}

void MetricsRegistry::for_each(
    const std::function<void(MetricId, Sample::Kind, std::string_view,
                             const MetricLabels&, double, const Histogram*)>&
        fn) const {
  for (MetricId id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (entry.dead) continue;
    const Histogram* hist = entry.hist ? &*entry.hist : nullptr;
    double value = 0.0;
    if (entry.read) {
      value = entry.read();
    } else if (hist != nullptr) {
      value = static_cast<double>(hist->total());
    } else {
      value = static_cast<double>(entry.counter.value());
    }
    fn(id, entry.kind, entry.name, entry.labels, value, hist);
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, s.name);
    out += ",\"node\":";
    append_escaped(out, s.labels.node);
    out += ",\"component\":";
    append_escaped(out, s.labels.component);
    out += ",\"type\":\"";
    out += kind_name(s.kind);
    out += "\",\"value\":";
    append_number(out, s.value);
    if (s.kind == Sample::Kind::kHistogram && s.hist != nullptr) {
      out += ",\"lo\":";
      append_number(out, s.hist->bin_lo(0));
      out += ",\"hi\":";
      append_number(out, s.hist->bin_hi(s.hist->bins() - 1));
      out += ",\"buckets\":[";
      for (std::size_t b = 0; b < s.hist->bins(); ++b) {
        if (b > 0) out += ',';
        append_number(out, static_cast<double>(s.hist->count(b)));
      }
      out += ']';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void MetricsTimeSeries::sample(SimTime now) {
  ++windows_;
  double t = to_seconds(now);
  // Visitation instead of snapshot(): no per-metric string copies, and
  // the registry's stable ids replace a map lookup per metric.  The
  // only allocations left are first-sight series creation and point
  // appends.
  registry_.for_each([&](MetricId id, MetricsRegistry::Sample::Kind kind,
                         std::string_view name, const MetricLabels& labels,
                         double value, const Histogram* hist) {
    if (id >= id_to_series_.size()) {
      id_to_series_.resize(id + 1, kNoSeries);
    }
    std::size_t idx = id_to_series_[id];
    if (idx == kNoSeries) {
      idx = series_.size();
      Series series;
      series.kind = kind;
      series.name = std::string(name);
      series.labels = labels;
      series_.push_back(std::move(series));
      states_.emplace_back();
      id_to_series_[id] = idx;
    }
    Series& series = series_[idx];
    State& state = states_[idx];
    Point point;
    point.t = t;
    switch (kind) {
      case MetricsRegistry::Sample::Kind::kGauge:
        point.value = value;
        break;
      case MetricsRegistry::Sample::Kind::kCounter:
        point.value = value - state.prev_value;
        state.prev_value = value;
        break;
      case MetricsRegistry::Sample::Kind::kHistogram: {
        point.value = value - state.prev_value;
        state.prev_value = value;
        if (hist != nullptr) {
          delta_.assign(hist->bins(), 0);
          state.prev_buckets.resize(hist->bins(), 0);
          for (std::size_t b = 0; b < hist->bins(); ++b) {
            delta_[b] = hist->count(b) - state.prev_buckets[b];
            state.prev_buckets[b] = hist->count(b);
          }
          double lo = hist->bin_lo(0);
          double hi = hist->bin_hi(hist->bins() - 1);
          point.p50 = percentile_of_buckets(lo, hi, delta_, 50);
          point.p95 = percentile_of_buckets(lo, hi, delta_, 95);
          point.p99 = percentile_of_buckets(lo, hi, delta_, 99);
        }
        break;
      }
    }
    series.points.push_back(point);
  });
}

std::string MetricsTimeSeries::to_csv() const {
  std::string out = "t,name,node,component,kind,value,p50,p95,p99\n";
  for (const Series& s : series_) {
    bool hist = s.kind == MetricsRegistry::Sample::Kind::kHistogram;
    for (const Point& p : s.points) {
      append_number(out, p.t);
      out += ',';
      out += s.name;  // metric names/labels never contain ',' or '"'
      out += ',';
      out += s.labels.node;
      out += ',';
      out += s.labels.component;
      out += ',';
      out += kind_name(s.kind);
      out += ',';
      append_number(out, p.value);
      if (hist) {
        out += ',';
        append_number(out, p.p50);
        out += ',';
        append_number(out, p.p95);
        out += ',';
        append_number(out, p.p99);
      } else {
        out += ",,,";
      }
      out += '\n';
    }
  }
  return out;
}

std::string MetricsTimeSeries::to_jsonl() const {
  std::string out;
  for (const Series& s : series_) {
    bool hist = s.kind == MetricsRegistry::Sample::Kind::kHistogram;
    for (const Point& p : s.points) {
      out += "{\"t\":";
      append_number(out, p.t);
      out += ",\"name\":";
      append_escaped(out, s.name);
      out += ",\"node\":";
      append_escaped(out, s.labels.node);
      out += ",\"component\":";
      append_escaped(out, s.labels.component);
      out += ",\"kind\":\"";
      out += kind_name(s.kind);
      out += "\",\"value\":";
      append_number(out, p.value);
      if (hist) {
        out += ",\"p50\":";
        append_number(out, p.p50);
        out += ",\"p95\":";
        append_number(out, p.p95);
        out += ",\"p99\":";
        append_number(out, p.p99);
      }
      out += "}\n";
    }
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  // The text format wants one TYPE line per family with the family's
  // samples grouped after it; the stable sort groups them and keeps
  // registration order inside each family.
  std::vector<Sample> samples = snapshot();
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.name < b.name;
                   });
  std::string out;
  auto labels_of = [](const MetricLabels& l) {
    std::string s = "{node=\"" + l.node + "\",component=\"" + l.component +
                    "\"}";
    return s;
  };
  const std::string* family = nullptr;
  for (const Sample& s : samples) {
    std::string name = "wow_" + s.name;
    if (family == nullptr || *family != s.name) {
      out += "# TYPE " + name + ' ' + kind_name(s.kind) + '\n';
      family = &s.name;
    }
    if (s.kind == Sample::Kind::kHistogram && s.hist != nullptr) {
      std::size_t cumulative = 0;
      for (std::size_t b = 0; b < s.hist->bins(); ++b) {
        cumulative += s.hist->count(b);
        char le[40];
        std::snprintf(le, sizeof le, "%g", s.hist->bin_hi(b));
        out += name + "_bucket{node=\"" + s.labels.node + "\",component=\"" +
               s.labels.component + "\",le=\"" + le + "\"} ";
        append_number(out, static_cast<double>(cumulative));
        out += '\n';
      }
      out += name + "_bucket{node=\"" + s.labels.node + "\",component=\"" +
             s.labels.component + "\",le=\"+Inf\"} ";
      append_number(out, static_cast<double>(s.hist->total()));
      out += '\n';
      out += name + "_count" + labels_of(s.labels) + ' ';
      append_number(out, static_cast<double>(s.hist->total()));
      out += '\n';
    } else {
      out += name + labels_of(s.labels) + ' ';
      append_number(out, s.value);
      out += '\n';
    }
  }
  return out;
}

}  // namespace wow
