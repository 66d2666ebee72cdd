// sim_bulk: concurrent vtcp bulk flows across a converged simulated
// overlay.  Transit forwarding and the frame codec carry the load:
// every flow crosses the ring between two nodes half a ring apart.
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "fleet.h"
#include "pattern.h"
#include "vtcp/tcp.h"

namespace wowbench {
namespace {

using wow::SimDuration;
using wow::kMillisecond;
using wow::kMinute;
using wow::kSecond;

constexpr int kNodes = 256;
constexpr int kFlows = 32;
constexpr std::uint64_t kFlowBytes = 1u << 20;
constexpr std::uint16_t kPort = 5001;
/// Overlays per untraced run, each with its own seed: path lengths (and
/// so the work of a rep) vary from overlay to overlay, so a run spreads
/// its reps over several and reports the median overlay.
constexpr int kOverlays = 8;
/// Times an untraced run builds each overlay and runs one rep on it.
/// The simulation is deterministic, so an overlay's boots execute the
/// same events (checked), and a slower boot of the same work can only be
/// the host's doing: each overlay counts with its fastest boot.  The
/// boots of one overlay are spread over the run, round-robin.
constexpr int kBoots = 3;
constexpr int kTraceReps = 2;
/// Flows are checked for completion between chunks of this much
/// simulated time.
constexpr SimDuration kChunk = 100 * kMillisecond;
constexpr SimDuration kRepHorizon = 10 * kMinute;

/// A converged overlay with bulk endpoints: flow f runs from the node at
/// ring position f*n/2F to the one half a ring further on.
class BulkRig {
 public:
  BulkRig(std::uint64_t seed, Ledger* ledger, Report& report)
      : pattern_(seed), fleet_(config(seed), ledger) {
    report.check(fleet_.start_and_converge(kSecond, 30 * kMinute).has_value(),
                 "overlay did not converge");
    report.check(fleet_.ring_census() == 1, "overlay is not one ring");
    if (ledger != nullptr) {
      vtcp_timers_ = std::make_unique<TracedTimers>(fleet_.sim, *ledger,
                                                    Span::kVtcpTimer);
    }
    wow::sim::TimerService& timers =
        vtcp_timers_ ? static_cast<wow::sim::TimerService&>(*vtcp_timers_)
                     : fleet_.sim;
    const auto& order = fleet_.ring_order();
    const auto& nodes = fleet_.nodes;
    auto ipop_of = [&](const wow::p2p::Node* n) {
      return fleet_.ipops[static_cast<std::size_t>(
          std::find(nodes.begin(), nodes.end(), n) - nodes.begin())];
    };
    wow::vtcp::TcpConfig tcp;
    tcp.mss = 1400;
    // Sources sit in one half of the ring and sinks in the other, so
    // no node plays two roles (one vtcp stack per IPOP node).
    for (int f = 0; f < kFlows; ++f) {
      std::size_t pos = static_cast<std::size_t>(f) * order.size() /
                        (2 * kFlows);
      wow::ipop::IpopNode* src = ipop_of(order[pos]);
      wow::ipop::IpopNode* dst = ipop_of(order[pos + order.size() / 2]);
      stacks_.push_back(
          std::make_unique<wow::vtcp::TcpStack>(timers, *src, tcp));
      sources_.push_back(std::make_unique<PatternSource>(
          *stacks_.back(), kPort, pattern_, kFlowBytes, ledger));
      Flow flow;
      flow.src_vip = src->vip();
      stacks_.push_back(
          std::make_unique<wow::vtcp::TcpStack>(timers, *dst, tcp));
      flow.sink = std::make_unique<PatternSink>(*stacks_.back(), pattern_,
                                                ledger);
      flows_.push_back(std::move(flow));
    }
  }

  /// Run every flow once, to completion.  Returns the rep's wall time.
  double run_rep(Report& report, const std::function<void()>& between) {
    std::int64_t t0 = now_ns();
    for (Flow& f : flows_) f.sink->fetch(f.src_vip, kPort, kFlowBytes);
    wow::SimTime deadline = fleet_.sim.now() + kRepHorizon;
    auto all_done = [&] {
      for (const Flow& f : flows_) {
        if (!f.sink->done()) return false;
      }
      return true;
    };
    while (!all_done() && fleet_.sim.now() < deadline) {
      fleet_.sim.run_for(kChunk);
      if (between) between();
    }
    double wall = static_cast<double>(now_ns() - t0) / 1e9;
    for (const Flow& f : flows_) {
      report.check(f.sink->ok(), "bulk flow incomplete or corrupt");
      if (f.sink->ok()) bytes_ += f.sink->received();
    }
    return wall;
  }

  [[nodiscard]] SimFleet& fleet() { return fleet_; }
  /// Verified payload bytes over every rep so far.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] wow::vtcp::TcpSocket::Stats tcp_stats() const {
    wow::vtcp::TcpSocket::Stats sum;
    for (const auto& s : sources_) accumulate(sum, s->stats());
    return sum;
  }

 private:
  static FleetConfig config(std::uint64_t seed) {
    FleetConfig c;
    c.seed = seed;
    c.nodes = kNodes;
    c.ipop = true;
    c.join_stagger = 100 * kMillisecond;
    return c;
  }

  struct Flow {
    wow::net::Ipv4Addr src_vip;
    std::unique_ptr<PatternSink> sink;
  };

  Pattern pattern_;
  SimFleet fleet_;
  std::unique_ptr<TracedTimers> vtcp_timers_;
  std::vector<std::unique_ptr<wow::vtcp::TcpStack>> stacks_;
  std::vector<std::unique_ptr<PatternSource>> sources_;
  std::vector<Flow> flows_;
  std::uint64_t bytes_ = 0;
};

/// The seed of overlay k of a run.
std::uint64_t overlay_seed(std::uint64_t seed, int k) {
  return seed * 1000 + static_cast<std::uint64_t>(k);
}

}  // namespace

void run_sim_bulk(const Options& opt, Report& report) {
  report.line(fmt("sim_bulk: %d public nodes, 30 ms lossless WAN, shortcuts "
                  "off; %d concurrent vtcp flows of %llu B (MSS 1400) "
                  "between ring-opposite nodes",
                  kNodes, kFlows,
                  static_cast<unsigned long long>(kFlowBytes)));
  if (!opt.trace) {
    std::vector<double> setups;
    std::vector<double> walls(kOverlays, 0.0);
    std::vector<std::uint64_t> events(kOverlays, 0);
    std::vector<double> all_walls;
    double total_wall = 0;
    std::uint64_t bytes = 0;
    std::unique_ptr<BulkRig> rig;
    for (int b = 0; b < kBoots; ++b) {
      for (int k = 0; k < kOverlays; ++k) {
        rig.reset();
        std::int64_t t0 = now_ns();
        rig = std::make_unique<BulkRig>(overlay_seed(opt.seed, k), nullptr,
                                        report);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        std::uint64_t e0 = rig->fleet().sim.executed_events();
        double wall = rig->run_rep(report, {});
        std::uint64_t e = rig->fleet().sim.executed_events() - e0;
        auto i = static_cast<std::size_t>(k);
        if (b == 0) {
          events[i] = e;
          walls[i] = wall;
        } else {
          report.check(e == events[i],
                       "an overlay's boots executed different events");
          walls[i] = std::min(walls[i], wall);
        }
        all_walls.push_back(wall);
        total_wall += wall;
        bytes += rig->bytes();
      }
    }
    report.set("setup_s", median(setups));
    report.set("wall_s", median(walls));
    report.set("rss_mb", peak_rss_mb());
    report.line(fmt("  %d overlays (seeds %llu..%llu) x %d boots, one rep "
                    "each",
                    kOverlays,
                    static_cast<unsigned long long>(overlay_seed(opt.seed, 0)),
                    static_cast<unsigned long long>(
                        overlay_seed(opt.seed, kOverlays - 1)),
                    kBoots));
    report.line(fmt("  wall_s_max                   %.6g s (slowest overlay, "
                    "its fastest boot)",
                    *std::max_element(walls.begin(), walls.end())));
    report.line(fmt("  wall_s_all_p50               %.6g s, p90 %.6g s (%zu "
                    "reps)",
                    median(all_walls), percentile(all_walls, 90),
                    all_walls.size()));
    report.line(fmt("  goodput_mb_per_s             %.6g MB/s (simulated "
                    "payload per wall second)",
                    static_cast<double>(bytes) / 1e6 / total_wall));
  } else {
    // The untraced twin, then the traced run: the run's first overlay,
    // the same reps.
    std::uint64_t seed = overlay_seed(opt.seed, 0);
    SimPhase plain;
    std::uint64_t plain_bytes = 0;
    {
      BulkRig rig(seed, nullptr, report);
      SimPhase start = rig.fleet().snapshot();
      double wall_s = 0;
      for (int r = 0; r < kTraceReps; ++r) wall_s += rig.run_rep(report, {});
      plain = rig.fleet().snapshot() - start;
      plain.wall_s = wall_s;
      plain_bytes = rig.bytes();
    }
    Ledger ledger;
    BulkRig rig(seed, &ledger, report);
    SimFleet& fleet = rig.fleet();
    wow::Rng probe(seed ^ 0x70726f6265ULL);
    SimPhase start = fleet.snapshot();
    ledger.reset();
    double wall_s = 0;
    for (int r = 0; r < kTraceReps; ++r) {
      wall_s += rig.run_rep(report, [&] { fleet.observe(probe, 64); });
    }
    SimPhase traced = fleet.snapshot() - start;
    traced.wall_s = wall_s;
    report.check(rig.bytes() == plain_bytes,
                 "traced run delivered a different number of bytes");
    report_sim_phase(report, fleet, ledger, plain, traced, seed);
    report_vtcp(report, rig.tcp_stats());
  }
}

}  // namespace wowbench
