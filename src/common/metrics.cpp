#include "common/metrics.h"

#include <algorithm>

#include "common/trace.h"

namespace wow {

namespace {

[[nodiscard]] const char* kind_name(MetricKind kind) {
  return kind == MetricKind::kCounter ? "counter" : "gauge";
}

}  // namespace

MetricId MetricsRegistry::add_callback(MetricKind kind, std::string_view name,
                                       const MetricLabels& labels,
                                       std::function<double()> fn) {
  entries_.push_back(Entry{kind, std::string(name), labels, std::move(fn)});
  ++live_;
  return entries_.size() - 1;
}

void MetricsRegistry::remove(MetricId id) {
  if (id >= entries_.size() || !entries_[id].read) return;
  entries_[id].read = nullptr;
  --live_;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(live_);
  for_each([&](MetricId, MetricKind kind, std::string_view name,
               const MetricLabels& labels, double value) {
    out.push_back(Sample{kind, std::string(name), labels, value});
  });
  return out;
}

void MetricsRegistry::for_each(
    const std::function<void(MetricId, MetricKind, std::string_view,
                             const MetricLabels&, double)>& fn) const {
  for (MetricId id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (!entry.read) continue;
    fn(id, entry.kind, entry.name, entry.labels, entry.read());
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
  registry_.for_each([&](MetricId id, MetricKind kind, std::string_view name,
                         const MetricLabels& labels, double value) {
    if (id >= id_to_series_.size()) {
      id_to_series_.resize(id + 1, kNoSeries);
    }
    std::size_t idx = id_to_series_[id];
    if (idx == kNoSeries) {
      idx = series_.size();
      series_.push_back(Series{kind, std::string(name), labels, {}});
      prev_values_.push_back(0.0);
      id_to_series_[id] = idx;
    }
    Point point{t, value};
    if (kind == MetricKind::kCounter) {
      point.value = value - prev_values_[idx];
      prev_values_[idx] = value;
    }
    series_[idx].points.push_back(point);
  });
}

std::string MetricsTimeSeries::to_csv() const {
  std::string out = "t,name,node,component,kind,value\n";
  for (const Series& s : series_) {
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
      out += '\n';
    }
  }
  return out;
}

std::string MetricsTimeSeries::to_jsonl() const {
  std::string out;
  for (const Series& s : series_) {
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
  const std::string* family = nullptr;
  for (const Sample& s : samples) {
    std::string name = "wow_" + s.name;
    if (family == nullptr || *family != s.name) {
      out += "# TYPE " + name + ' ' + kind_name(s.kind) + '\n';
      family = &s.name;
    }
    out += name + "{node=\"" + s.labels.node + "\",component=\"" +
           s.labels.component + "\"} ";
    append_number(out, s.value);
    out += '\n';
  }
  return out;
}

}  // namespace wow
