// Fleet health report: digests the snapshot JSONL a chaos_runner
// --snapshots run emits into the curves the soak acceptance criteria
// are judged on — time-resolved convergence, repair activity, SLO
// attainment, and the final connection-table mix.
//
// Input lines come from p2p::FleetSnapshotter: one {"kind":"fleet",...}
// aggregate per sampling window, plus optional {"kind":"node",...}
// per-node lines (mid-size fleets only).  Flat one-level JSON with
// deterministic key order, so targeted key scans suffice.
//
// Exit status: 0 report printed, 2 usage or unreadable input.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "jsonl_reader.h"
#include "tool_flags.h"

namespace {

using wow::tools::num_value;
using wow::tools::raw_value;

struct FleetRow {
  double t = 0.0;
  double nodes = 0.0;
  double running = 0.0;
  double routable = 0.0;
  double eps = 0.0;
  double conns_min = 0.0;
  double conns_p50 = 0.0;
  double conns_p95 = 0.0;
  double conns_max = 0.0;
  double srtt_ms_p95 = 0.0;
  double quarantines = 0.0;
  double relays = 0.0;
  double delivered = 0.0;
  double drops = 0.0;

  [[nodiscard]] double conv_pct() const {
    return nodes > 0 ? 100.0 * routable / nodes : 0.0;
  }
};

/// Per-window aggregate of the per-node lines; only the final window is
/// reported, but windows arrive interleaved with fleet lines so all are
/// kept (cheap: a handful of doubles per window).
struct NodeAgg {
  int count = 0;
  int routable = 0;
  double near = 0, far = 0, leaf = 0, shortcut = 0, relay = 0;
  double flight_recorded = 0;
};

double field(const std::string& line, const char* key) {
  return num_value(line, key).value_or(0.0);
}

/// Earliest snapshot time from which convergence stays >= pct through
/// the end of the run (sustained attainment), or -1 if never.
double sustained_from(const std::vector<FleetRow>& rows, double pct) {
  double from = -1.0;
  for (const FleetRow& r : rows) {
    if (r.conv_pct() >= pct) {
      if (from < 0) from = r.t;
    } else {
      from = -1.0;
    }
  }
  return from;
}

}  // namespace

int main(int argc, char** argv) {
  double slo = 99.0;
  bool no_curve = false;
  wow::tools::FlagSet flags("fleet_report", "snapshots.jsonl");
  flags.value("slo", slo, "convergence SLO threshold in percent, (0, 100]");
  flags.flag("no-curve", no_curve,
             "suppress the per-window convergence table");
  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, positional)) {
    return flags.help_shown() ? 0 : 2;
  }
  if (positional.size() != 1 || !(slo > 0.0 && slo <= 100.0)) {
    flags.print_usage(stderr);
    return 2;
  }

  std::vector<FleetRow> rows;
  std::map<double, NodeAgg> node_windows;
  bool ok = wow::tools::for_each_line(
      positional[0].c_str(), [&](const std::string& line) {
        auto kind = raw_value(line, "kind");
        if (!kind) return;
        if (*kind == "fleet") {
          FleetRow r;
          r.t = field(line, "t");
          r.nodes = field(line, "nodes");
          r.running = field(line, "running");
          r.routable = field(line, "routable");
          r.eps = field(line, "eps");
          r.conns_min = field(line, "conns_min");
          r.conns_p50 = field(line, "conns_p50");
          r.conns_p95 = field(line, "conns_p95");
          r.conns_max = field(line, "conns_max");
          r.srtt_ms_p95 = field(line, "srtt_ms_p95");
          r.quarantines = field(line, "quarantines");
          r.relays = field(line, "relays");
          r.delivered = field(line, "delivered");
          r.drops = field(line, "drops");
          rows.push_back(r);
        } else if (*kind == "node") {
          NodeAgg& agg = node_windows[field(line, "t")];
          ++agg.count;
          if (raw_value(line, "routable").value_or("") == "true") {
            ++agg.routable;
          }
          agg.near += field(line, "near");
          agg.far += field(line, "far");
          agg.leaf += field(line, "leaf");
          agg.shortcut += field(line, "shortcut");
          agg.relay += field(line, "relay");
          agg.flight_recorded += field(line, "flight_recorded");
        }
      });
  if (!ok) {
    std::fprintf(stderr, "fleet_report: cannot read %s\n",
                 positional[0].c_str());
    return 2;
  }
  if (rows.empty()) {
    std::fprintf(stderr, "fleet_report: no fleet snapshots in %s\n",
                 positional[0].c_str());
    return 2;
  }
  std::sort(rows.begin(), rows.end(),
            [](const FleetRow& a, const FleetRow& b) { return a.t < b.t; });

  const FleetRow& first = rows.front();
  const FleetRow& last = rows.back();
  std::printf("fleet_report: %zu snapshots, %g nodes, t=[%.0fs .. %.0fs]\n",
              rows.size(), last.nodes, first.t, last.t);

  if (!no_curve) {
    std::printf(
        "\n       t  running routable  conv%%  conns_p50 conns_p95    eps\n");
    for (const FleetRow& r : rows) {
      std::printf("  %6.0fs %8g %8g %6.1f %10g %9g %6.0f\n", r.t, r.running,
                  r.routable, r.conv_pct(), r.conns_p50, r.conns_p95, r.eps);
    }
  }

  std::printf("\nmilestones (routable/nodes):");
  for (double pct : {50.0, 90.0, 99.0, 100.0}) {
    double at = -1.0;
    for (const FleetRow& r : rows) {
      if (r.conv_pct() >= pct) {
        at = r.t;
        break;
      }
    }
    if (at >= 0) {
      std::printf(" %g%%=%.0fs", pct, at);
    } else {
      std::printf(" %g%%=never", pct);
    }
  }
  std::printf("\n");

  std::size_t met = 0;
  for (const FleetRow& r : rows) {
    if (r.conv_pct() >= slo) ++met;
  }
  double from = sustained_from(rows, slo);
  std::printf("slo: conv>=%g%% in %zu/%zu windows (%.1f%%)", slo, met,
              rows.size(), 100.0 * static_cast<double>(met) /
                               static_cast<double>(rows.size()));
  if (from >= 0) {
    std::printf(", sustained from t=%.0fs\n", from);
  } else {
    std::printf(", never sustained\n");
  }

  // Counters in the fleet lines are fleet-wide running totals, so the
  // first->last delta is the activity inside the observed span.
  std::printf("repair: quarantines +%g, relays last=%g, delivered +%g, "
              "drops +%g over the run\n",
              last.quarantines - first.quarantines, last.relays,
              last.delivered - first.delivered, last.drops - first.drops);
  std::printf("health: srtt_p95 last=%.1fms, conns last min..max = %g..%g\n",
              last.srtt_ms_p95, last.conns_min, last.conns_max);

  if (!node_windows.empty()) {
    const auto& [t, agg] = *node_windows.rbegin();
    std::printf("\nfinal connection mix (t=%.0fs, %d nodes, %d routable):\n",
                t, agg.count, agg.routable);
    std::printf(
        "  near %g  far %g  leaf %g  shortcut %g  relay %g  "
        "(flight events %g)\n",
        agg.near, agg.far, agg.leaf, agg.shortcut, agg.relay,
        agg.flight_recorded);
  }
  return 0;
}
