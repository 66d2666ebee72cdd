// Offline analyzer for JSONL overlay traces (common/trace.h schema).
//
// Reads a trace produced by Testbed::attach_trace() (or any Tracer sink)
// and reconstructs the paper's observables from events alone:
//   - join latency (node.start -> node.routable) as a CDF, the Fig. 4
//     "time to become fully routable" experiment,
//   - CTM request->reply round-trip latency,
//   - delivered-packet overlay hop counts,
//   - drop causes, overlay- and network-level.
//
// With --path=<pkt id> it prints every record touching one packet, i.e.
// the hop-by-hop forwarding path plus the drop that ended it (if any).
//
// With --faults it aligns fault.begin/end records with the overlay's
// repair activity: the fault timeline, fault -> detection (conn.lost)
// latency, and detection -> relink (conn.added) latency distributions.
//
// With --health it summarizes the adaptive-maintenance machinery: the
// per-peer SRTT each node's estimator converged to (conn.rtt), the
// quarantine episodes flapping peers earned (quarantine.begin), and the
// relay lifecycle — tunnels established, relay -> direct upgrade
// latency (relay.upgraded), probe failures, and bootstrap re-probes.
//
// Usage: trace_report <trace.jsonl> [flags]; see --help.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "jsonl_reader.h"
#include "tool_flags.h"

namespace {

using wow::tools::num_value;
using wow::tools::raw_value;
using wow::tools::u64_value;

void print_distribution(const char* title, std::vector<double> values,
                        double lo, double hi, std::size_t bins,
                        const char* unit) {
  std::printf("\n== %s (%zu samples) ==\n", title, values.size());
  if (values.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  wow::RunningStats stats;
  for (double v : values) stats.add(v);
  std::printf("  min %.3f  p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  (%s)\n",
              stats.min(), wow::percentile(values, 50),
              wow::percentile(values, 90), wow::percentile(values, 99),
              stats.max(), unit);
  wow::Histogram hist(lo, hi, bins);
  for (double v : values) hist.add(v);
  std::printf("%s", hist.render().c_str());
  // Cumulative fraction per bin upper edge: the CDF the paper plots.
  std::printf("  CDF:");
  std::size_t cum = 0;
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    cum += hist.count(b);
    if (hist.count(b) == 0) continue;
    std::printf(" %.0f%s:%.2f", hist.bin_hi(b), unit,
                static_cast<double>(cum) / static_cast<double>(hist.total()));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint64_t> follow_pkt;
  bool faults_view = false;
  bool health_view = false;
  std::size_t cdf_bins = 20;

  wow::tools::FlagSet flags("trace_report", "<trace.jsonl>");
  flags.on_value("path", "<pkt>",
                 "print every record touching packet id <pkt>",
                 [&](std::string_view v) {
                   return wow::tools::parse_value(v, follow_pkt.emplace());
                 });
  flags.flag("faults", faults_view,
             "fault timeline + detection/relink latency view");
  flags.flag("health", health_view,
             "adaptive-maintenance view (SRTT, quarantine, relays)");
  flags.value("cdf-bins", cdf_bins, "histogram bins, > 0");
  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, positional)) {
    return flags.help_shown() ? 0 : 2;
  }
  if (positional.size() != 1 || cdf_bins == 0) {
    flags.print_usage(stderr);
    return 2;
  }
  const char* path = positional[0].c_str();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return 1;
  }

  // Per node: time of the most recent start, to pair with the next
  // routable event (restarts produce several pairs per node).
  std::map<std::string, double> start_at;
  std::vector<double> join_latency;
  std::vector<double> ctm_rtt_ms;
  std::vector<double> hops;
  std::vector<double> link_latency;
  std::map<std::string, std::uint64_t> overlay_drops;
  std::map<std::string, std::uint64_t> net_drops;
  std::uint64_t lines = 0;
  std::uint64_t followed = 0;

  // --faults state: the fault timeline, plus repair spans.  A conn.lost
  // within the attribution horizon of the latest fault.begin is a
  // detection; the owner's next conn.added of the same connection type
  // closes the repair.
  struct FaultWindow {
    double begin = 0.0;
    double end = -1.0;  // -1 while open
    std::string kind;
    std::string spec;
  };
  constexpr double kAttributionHorizon = 300.0;  // seconds past begin
  std::vector<FaultWindow> fault_windows;
  std::vector<double> detect_latency;
  std::vector<double> relink_latency;
  std::map<std::string, double> pending_relink;  // node|ctype -> t lost

  // --health state, keyed "node->peer".
  struct PeerRtt {
    std::uint64_t samples = 0;
    double last_srtt_ms = 0.0;
    double max_srtt_ms = 0.0;
  };
  struct QuarantineEpisode {
    double at = 0.0;
    std::string edge;
    double level = 0.0;
    double duration_s = 0.0;
  };
  std::map<std::string, PeerRtt> peer_rtt;
  std::vector<QuarantineEpisode> quarantine_episodes;
  std::vector<double> relay_setup_latency;    // relay.established elapsed_s
  std::vector<double> relay_upgrade_latency;  // relay.upgraded lifetime_s
  std::uint64_t relay_probe_failures = 0;
  std::uint64_t relay_exhausted = 0;
  std::uint64_t bootstrap_reprobes = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    auto ev = raw_value(line, "ev");
    if (!ev) continue;

    if (follow_pkt) {
      if (auto pkt = u64_value(line, "pkt"); pkt && *pkt == *follow_pkt) {
        std::printf("%s\n", line.c_str());
        ++followed;
      }
    }

    auto t = num_value(line, "t");
    auto node = raw_value(line, "node");
    if (*ev == "node.start") {
      if (t && node) start_at[std::string(*node)] = *t;
    } else if (*ev == "node.routable") {
      if (t && node) {
        auto it = start_at.find(std::string(*node));
        if (it != start_at.end()) {
          join_latency.push_back(*t - it->second);
          start_at.erase(it);  // next routable needs a fresh start
        }
      }
    } else if (*ev == "ctm.reply") {
      if (auto rtt = num_value(line, "rtt_s")) {
        ctm_rtt_ms.push_back(*rtt * 1e3);
      }
    } else if (*ev == "packet.deliver") {
      if (auto h = num_value(line, "hops")) hops.push_back(*h);
    } else if (*ev == "link.established") {
      if (auto e = num_value(line, "elapsed_s")) link_latency.push_back(*e);
    } else if (*ev == "packet.drop") {
      if (auto reason = raw_value(line, "reason")) {
        ++overlay_drops[std::string(*reason)];
      }
    } else if (*ev == "net.drop") {
      if (auto reason = raw_value(line, "reason")) {
        ++net_drops[std::string(*reason)];
      }
    }

    if (health_view && t && node) {
      std::string edge = std::string(*node);
      if (auto peer = raw_value(line, "peer")) {
        edge += "->";
        edge += *peer;
      }
      if (*ev == "conn.rtt") {
        PeerRtt& r = peer_rtt[edge];
        ++r.samples;
        if (auto srtt = num_value(line, "srtt_ms")) {
          r.last_srtt_ms = *srtt;
          r.max_srtt_ms = std::max(r.max_srtt_ms, *srtt);
        }
      } else if (*ev == "quarantine.begin") {
        QuarantineEpisode q;
        q.at = *t;
        q.edge = edge;
        if (auto level = num_value(line, "level")) q.level = *level;
        if (auto dur = num_value(line, "duration_s")) q.duration_s = *dur;
        quarantine_episodes.push_back(std::move(q));
      } else if (*ev == "relay.established") {
        if (auto e = num_value(line, "elapsed_s")) {
          relay_setup_latency.push_back(*e);
        }
      } else if (*ev == "relay.upgraded") {
        if (auto life = num_value(line, "relay_lifetime_s")) {
          relay_upgrade_latency.push_back(*life);
        }
      } else if (*ev == "relay.probe_failed") {
        ++relay_probe_failures;
      } else if (*ev == "relay.exhausted") {
        ++relay_exhausted;
      } else if (*ev == "bootstrap.reprobe") {
        ++bootstrap_reprobes;
      }
    }

    if (!faults_view || !t) continue;
    if (*ev == "fault.begin") {
      FaultWindow w;
      w.begin = *t;
      if (auto kind = raw_value(line, "kind")) w.kind = *kind;
      if (auto spec = raw_value(line, "spec")) w.spec = *spec;
      fault_windows.push_back(std::move(w));
    } else if (*ev == "fault.end") {
      auto spec = raw_value(line, "spec");
      for (auto it = fault_windows.rbegin(); it != fault_windows.rend();
           ++it) {
        if (it->end < 0.0 && (!spec || it->spec == *spec)) {
          it->end = *t;
          break;
        }
      }
    } else if (*ev == "conn.lost") {
      double latest_begin = -1.0;
      for (const FaultWindow& w : fault_windows) {
        if (w.begin <= *t && *t - w.begin <= kAttributionHorizon) {
          latest_begin = std::max(latest_begin, w.begin);
        }
      }
      if (latest_begin >= 0.0 && node) {
        detect_latency.push_back(*t - latest_begin);
        std::string key = std::string(*node);
        if (auto ctype = raw_value(line, "ctype")) {
          key += '|';
          key += *ctype;
        }
        pending_relink.emplace(std::move(key), *t);  // keep the earliest
      }
    } else if (*ev == "conn.added") {
      if (node) {
        std::string key = std::string(*node);
        if (auto ctype = raw_value(line, "ctype")) {
          key += '|';
          key += *ctype;
        }
        if (auto it = pending_relink.find(key); it != pending_relink.end()) {
          relink_latency.push_back(*t - it->second);
          pending_relink.erase(it);
        }
      }
    }
  }

  std::printf("trace: %s (%" PRIu64 " records)\n", path, lines);
  if (follow_pkt) {
    std::printf("packet %" PRIu64 ": %" PRIu64 " records shown above\n",
                *follow_pkt, followed);
  }

  double join_hi = 1.0;
  for (double v : join_latency) join_hi = std::max(join_hi, v);
  print_distribution("join latency: node.start -> node.routable",
                     join_latency, 0.0, join_hi, cdf_bins, "s");

  double ctm_hi = 1.0;
  for (double v : ctm_rtt_ms) ctm_hi = std::max(ctm_hi, v);
  print_distribution("CTM request->reply latency", ctm_rtt_ms, 0.0, ctm_hi,
                     cdf_bins, "ms");

  print_distribution("delivered-packet overlay hops", hops, 0.0, 16.0, 16,
                     "hops");

  double link_hi = 1.0;
  for (double v : link_latency) link_hi = std::max(link_hi, v);
  print_distribution("link handshake latency", link_latency, 0.0, link_hi,
                     cdf_bins, "s");

  std::printf("\n== drops ==\n");
  if (overlay_drops.empty() && net_drops.empty()) {
    std::printf("  (none)\n");
  }
  for (const auto& [reason, count] : overlay_drops) {
    std::printf("  overlay/%-16s %" PRIu64 "\n", reason.c_str(), count);
  }
  for (const auto& [reason, count] : net_drops) {
    std::printf("  net/%-20s %" PRIu64 "\n", reason.c_str(), count);
  }

  if (faults_view) {
    std::printf("\n== fault timeline (%zu windows) ==\n",
                fault_windows.size());
    for (const FaultWindow& w : fault_windows) {
      if (w.end >= 0.0) {
        std::printf("  %9.3fs +%6.1fs  %-9s %s\n", w.begin, w.end - w.begin,
                    w.kind.c_str(), w.spec.c_str());
      } else {
        std::printf("  %9.3fs  (open)   %-9s %s\n", w.begin, w.kind.c_str(),
                    w.spec.c_str());
      }
    }
    double detect_hi = 1.0;
    for (double v : detect_latency) detect_hi = std::max(detect_hi, v);
    print_distribution("fault -> detection (conn.lost) latency",
                       detect_latency, 0.0, detect_hi, cdf_bins, "s");
    double relink_hi = 1.0;
    for (double v : relink_latency) relink_hi = std::max(relink_hi, v);
    print_distribution("detection -> relink (conn.added) latency",
                       relink_latency, 0.0, relink_hi, cdf_bins, "s");
    if (!pending_relink.empty()) {
      std::printf("  (%zu lost connections never relinked)\n",
                  pending_relink.size());
    }
  }

  if (health_view) {
    std::printf("\n== per-peer RTT estimators (%zu edges) ==\n",
                peer_rtt.size());
    if (peer_rtt.empty()) std::printf("  (no conn.rtt samples)\n");
    for (const auto& [edge, r] : peer_rtt) {
      std::printf("  %-24s srtt %8.2fms  (max %8.2fms, %" PRIu64
                  " samples)\n",
                  edge.c_str(), r.last_srtt_ms, r.max_srtt_ms, r.samples);
    }
    std::vector<double> srtts;
    for (const auto& [edge, r] : peer_rtt) srtts.push_back(r.last_srtt_ms);
    double srtt_hi = 1.0;
    for (double v : srtts) srtt_hi = std::max(srtt_hi, v);
    print_distribution("final per-peer SRTT", std::move(srtts), 0.0, srtt_hi,
                       cdf_bins, "ms");

    std::printf("\n== quarantine episodes (%zu) ==\n",
                quarantine_episodes.size());
    for (const auto& q : quarantine_episodes) {
      std::printf("  %9.3fs  %-24s level %.0f  for %6.1fs\n", q.at,
                  q.edge.c_str(), q.level, q.duration_s);
    }

    std::printf("\n== relay lifecycle ==\n");
    std::printf("  tunnels established   %zu\n", relay_setup_latency.size());
    std::printf("  upgraded to direct    %zu\n",
                relay_upgrade_latency.size());
    std::printf("  probe failures        %" PRIu64 "\n",
                relay_probe_failures);
    std::printf("  attempts exhausted    %" PRIu64 "\n", relay_exhausted);
    std::printf("  bootstrap re-probes   %" PRIu64 "\n", bootstrap_reprobes);
    double setup_hi = 1.0;
    for (double v : relay_setup_latency) setup_hi = std::max(setup_hi, v);
    print_distribution("relay tunnel setup latency", relay_setup_latency,
                       0.0, setup_hi, cdf_bins, "s");
    double up_hi = 1.0;
    for (double v : relay_upgrade_latency) up_hi = std::max(up_hi, v);
    print_distribution("relay -> direct upgrade latency (tunnel lifetime)",
                       relay_upgrade_latency, 0.0, up_hi, cdf_bins, "s");
  }
  return 0;
}
