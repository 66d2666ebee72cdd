// sim_flashcrowd: a flyweight fleet boots in one simulated instant
// against three well-known endpoints and runs until it is one ring and
// through its first simulated minute — the wowd deployment shape.  Only
// control frames flow; routing-table scans and the protocol services
// carry the load.
#include <algorithm>
#include <memory>
#include <vector>

#include "fleet.h"

namespace wowbench {
namespace {

using wow::kMinute;
using wow::kSecond;

constexpr int kNodes = 2000;
/// Differently seeded crowds per untraced run; the run reports the
/// median crowd.
constexpr int kCrowds = 4;
/// Times an untraced run boots each crowd, at most.  A crowd's
/// simulation is deterministic, so its boots execute the same events,
/// and a slower boot of the same work can only be the host's doing: each
/// crowd counts with its fastest boot.  The boots of one crowd are spread
/// over the run, round-robin with the other crowds, and a new round
/// starts only while the run is within --seconds (a crowd that takes
/// many minutes of simulated time to close its ring is booted once).
constexpr int kBoots = 3;
constexpr std::size_t kOracleRoutePairs = 2000;
/// Simulated time a crowd gets to become one ring.  Most crowds need
/// under a minute, but a rare one keeps a ring gap for over 30 minutes
/// (crowd seed 106011: a stale successor) before it closes.
constexpr wow::SimDuration kHorizon = 120 * kMinute;
/// A crowd that is one ring sooner runs on to this simulated time, so
/// every crowd simulates its first minute.  The work to reach one ring
/// varies with the seed (105k to 190k events), the work of a whole
/// minute far less (235k to 250k events).
constexpr wow::SimTime kMeasuredSpan = 60 * kSecond;

/// The seed of crowd k of a run.
std::uint64_t crowd_seed(std::uint64_t seed, int k) {
  return seed * 1000 + static_cast<std::uint64_t>(k);
}

struct CrowdTimes {
  double setup_s = 0;
  double wall_s = 0;
};

/// Build a fleet into `fleet`, boot it and run to one ring and on to
/// kMeasuredSpan, then check the ring with the Oracle.  `observe`
/// (traced run only) runs between chunks until the ring forms.
CrowdTimes run_crowd(std::uint64_t seed, Ledger* ledger, Report& report,
                     std::unique_ptr<SimFleet>& fleet,
                     const std::function<void(SimFleet&)>& observe = {}) {
  FleetConfig config;
  config.seed = seed;
  config.nodes = kNodes;
  config.flyweight = true;
  config.batched = true;

  std::int64_t t0 = now_ns();
  fleet = std::make_unique<SimFleet>(config, ledger);
  std::int64_t t1 = now_ns();
  SimFleet& f = *fleet;
  bool converged = f.start_and_converge(kSecond, kHorizon, [&] {
                     if (observe) observe(f);
                   }).has_value();
  if (f.sim.now() < kMeasuredSpan) f.sim.run_until(kMeasuredSpan);
  std::int64_t t2 = now_ns();

  report.check(converged, "crowd did not converge");
  std::size_t rings = f.ring_census();
  report.check(rings == 1, fmt("ring census %zu, not 1", rings));
  wow::p2p::OracleReport oracle = f.oracle(kOracleRoutePairs);
  report.check(oracle.ok, oracle.to_string());
  std::size_t joined = f.join_latencies_s().size();
  report.check(joined == f.nodes.size(),
               fmt("%zu of %zu nodes joined", joined, f.nodes.size()));
  return CrowdTimes{static_cast<double>(t1 - t0) / 1e9,
                    static_cast<double>(t2 - t1) / 1e9};
}

}  // namespace

void run_sim_flashcrowd(const Options& opt, Report& report) {
  report.line(fmt("sim_flashcrowd: %d flyweight nodes, batched delivery, all "
                  "started at t=0 against %d well-known endpoints, run to one "
                  "ring and at least %g simulated s; %d crowds, a round of "
                  "boots starts while the run is within --seconds",
                  kNodes, kWellKnownEndpoints,
                  wow::to_seconds(kMeasuredSpan), kCrowds));
  std::unique_ptr<SimFleet> fleet;
  if (!opt.trace) {
    std::vector<double> setups;
    std::vector<double> walls(kCrowds, 0.0);
    std::vector<double> events(kCrowds, 0.0);
    std::vector<double> all_walls;
    std::int64_t budget_end =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (int b = 0; b < kBoots && (b == 0 || now_ns() < budget_end); ++b) {
      for (int k = 0; k < kCrowds; ++k) {
        fleet.reset();
        CrowdTimes t =
            run_crowd(crowd_seed(opt.seed, k), nullptr, report, fleet);
        auto e = static_cast<double>(fleet->sim.executed_events());
        auto i = static_cast<std::size_t>(k);
        if (b == 0) {
          events[i] = e;
          walls[i] = t.wall_s;
        } else {
          report.check(e == events[i],
                       "a crowd's boots executed different events");
          walls[i] = std::min(walls[i], t.wall_s);
        }
        setups.push_back(t.setup_s);
        all_walls.push_back(t.wall_s);
      }
    }
    report.set("setup_s", median(setups));
    report.set("wall_s", median(walls));
    report.set("rss_mb", peak_rss_mb());
    report.line(fmt("  %d crowds (seeds %llu..%llu) x %zu boots, median "
                    "%.0f events per crowd",
                    kCrowds,
                    static_cast<unsigned long long>(crowd_seed(opt.seed, 0)),
                    static_cast<unsigned long long>(
                        crowd_seed(opt.seed, kCrowds - 1)),
                    all_walls.size() / kCrowds, median(events)));
    report.line(fmt("  wall_s_max                   %.6g s (slowest crowd, "
                    "its fastest boot)",
                    *std::max_element(walls.begin(), walls.end())));
    report.line(fmt("  wall_s_all_p50               %.6g s, p90 %.6g s (%zu "
                    "boots)",
                    median(all_walls), percentile(all_walls, 90),
                    all_walls.size()));
  } else {
    // The untraced twin, then the traced run: the run's first crowd.
    std::uint64_t seed = crowd_seed(opt.seed, 0);
    double plain_wall = run_crowd(seed, nullptr, report, fleet).wall_s;
    SimPhase plain = fleet->snapshot();
    plain.wall_s = plain_wall;
    fleet.reset();

    Ledger ledger;
    wow::Rng probe(seed ^ 0x70726f6265ULL);
    double traced_wall =
        run_crowd(seed, &ledger, report, fleet,
                  [&](SimFleet& f) { f.observe(probe, 256); })
            .wall_s;
    SimPhase traced = fleet->snapshot();
    traced.wall_s = traced_wall;
    report_sim_phase(report, *fleet, ledger, plain, traced, seed);
  }
}

}  // namespace wowbench
