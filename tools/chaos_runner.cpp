// Seeded chaos soak runner: the CI/CLI face of the fault-injection
// fabric.  Builds a multi-site overlay, applies a fault schedule
// (random from --seed, or an explicit --schedule reproducer), drives
// traffic across the fault horizon, and judges the end state with the
// overlay invariant oracle.
//
// Exit status: 0 oracle green, 1 oracle violation (the reproducer line
// is printed), 2 usage/parse error.
//
// Telemetry plane: --sample-rate thins kPacket-class trace events by a
// deterministic hash (faults/oracle/lifecycle stay always-on), so a
// multi-thousand-node soak traces at ~1% cost.  --snapshots captures a
// periodic fleet health snapshot (convergence %, connection
// distribution) for tools/fleet_report; --series exports windowed
// metric deltas.  On an oracle violation the implicated nodes' flight
// recorders and a final fleet snapshot are dumped next to the trace.
//
// --profile=composite grows the topology with two NAT domains (two
// hosts each) and replaces the random plan with the fixed worst-case
// stack the adaptive-maintenance work targets: a WAN storm, a site
// partition outliving the keepalive horizon (ring split + merge), and
// NAT reboots that wipe every mapping.  Seeds still vary link jitter
// and loss, so an 8-seed matrix covers distinct interleavings.  An
// explicit --schedule overrides the plan but keeps the NAT topology,
// which is what the printed reproducer line relies on.
//
// --profile=byzantine is the adversary soak (DESIGN §16): no network
// faults at all — instead every k-th node (k from --adversary-fraction,
// default 10%) runs an AdversaryAgent that abuses its honestly-joined
// position to inject spoofed, replayed, forged, and poisoned frames at
// its ring neighbors for the whole run.  The final oracle sweep gets
// the complete identity roster, so its phantom_identity containment
// invariant proves no honest node ever installed a forged identity.
// --no-defenses turns NodeConfig::defenses_enabled off fleet-wide; the
// same seed then reproduces at least one containment violation, which
// is the calibration run proving the oracle can see the attacks the
// defenses absorb.
//
// --profile=flashcrowd is the bootstrap-at-scale shape (DESIGN §15):
// every node shares the same three-endpoint well-known bootstrap list
// and the whole fleet starts in one simultaneous burst; the fault plan
// crashes well-known endpoint #1 while the crowd is still joining and
// heals it two minutes later.  The ring census runs (census_interval
// on), so the oracle's ring_census invariant judges that the crowd
// ended as ONE ring.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/faults.h"
#include "net/network.h"
#include "p2p/adversary.h"
#include "p2p/node_inspector.h"
#include "p2p/oracle.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "tool_flags.h"
#include "transport/uri.h"
#include "wow/fleet.h"

namespace {

using namespace wow;

struct Options {
  std::uint64_t seed = 1;
  std::string schedule;  // empty: generate from seed
  int nodes = 12;
  int events = 10;
  std::string trace_path;
  bool composite = false;
  bool flashcrowd = false;
  bool byzantine = false;
  /// Fraction of the fleet run by adversaries under --profile=byzantine
  /// (every k-th node, k = round(1/F); node 0 stays honest — it is the
  /// bootstrap everyone joins through).
  double adversary_fraction = 0.10;
  /// Fleet-wide NodeConfig::defenses_enabled = false: the calibration
  /// run that must REPRODUCE a containment violation.
  bool no_defenses = false;
  /// kPacket-class trace sampling rate; 1.0 keeps the trace
  /// byte-identical to an unsampled run.
  double sample_rate = 1.0;
  std::string snapshots_path;  // fleet snapshot JSONL (empty: off)
  std::string series_path;     // metric time series (.csv or .jsonl)
  long snapshot_period_s = 30;
  /// Protocol-only node profile (NodeConfig::flyweight): required for
  /// fleets past kMaxDefaultNodes, where the full-service per-node
  /// footprint (relay ledgers, shortcut scores, per-node metrics,
  /// flight rings) stops fitting.
  bool flyweight = false;
  /// Stop one node right before the final oracle sweep: a guaranteed
  /// near_is_live_successor violation exercising the postmortem path.
  bool inject_violation = false;
};

/// Full-service fleets keep the historical cap; the flyweight profile
/// is validated for fleets up to a mebinode.
constexpr int kMaxDefaultNodes = 8192;
constexpr int kMaxFlyweightNodes = 1 << 20;

/// The soak topology: a Fleet of public hosts round-robin over three
/// WAN sites, all bootstrapping off node 0 (which faults never touch).
/// The flashcrowd profile instead gives every joiner the SAME
/// three-endpoint well-known list (hosts 0..2) and turns the ring
/// census on, so endpoint rotation, backoff, and the merge protocol
/// all carry real load.
FleetConfig soak_fleet(const Options& opt) {
  p2p::NodeConfig node =
      opt.flyweight ? p2p::NodeConfig::flyweight() : p2p::NodeConfig{};
  if (opt.no_defenses) node.defenses_enabled = false;
  if (opt.byzantine || opt.flashcrowd) node.census_interval = kMinute;
  return FleetConfig{.seed = opt.seed,
                     .nodes = opt.nodes,
                     .sites = 3,
                     .node = std::move(node),
                     .wellknown = opt.flashcrowd ? 3 : 1};
}

struct SoakNet : Fleet {
  explicit SoakNet(const Options& opt) : Fleet(soak_fleet(opt)) {
    network.set_default_wan(
        net::LinkModel{30 * kMillisecond, 2 * kMillisecond, 0.002});
    if (opt.byzantine) {
      // Deterministic adversary placement: every k-th node, skipping the
      // bootstrap.  A stride (rather than a random draw) keeps the cast
      // identical across seeds, so an 8-seed matrix varies the ATTACK
      // interleavings, not who the attackers are.
      const int stride =
          std::max(2, static_cast<int>(1.0 / opt.adversary_fraction + 0.5));
      for (int i = stride; i < opt.nodes; i += stride) {
        adversaries.push_back(std::make_unique<p2p::AdversaryAgent>(
            *nodes[static_cast<std::size_t>(i)], sim,
            opt.seed ^ (0x9e3779b97f4a7c15ull *
                        (static_cast<std::uint64_t>(i) + 1))));
      }
    }
    if (opt.composite) {
      // Two NAT domains with two hosts each: targets for kNatReboot, and
      // — the hairpin-less one — a source of un-linkable pairs that must
      // fall back to relay tunnels.
      for (int d = 0; d < 2; ++d) {
        net::NatBox::Config nat;
        nat.type = net::NatType::kPortRestricted;
        nat.hairpin = (d == 1);
        net::DomainId dom = network.add_nat_domain(
            net::Network::kInternet, sites[static_cast<std::size_t>(d)],
            net::Ipv4Addr(60, static_cast<std::uint8_t>(1 + d), 0, 1), nat);
        nat_domains.push_back(dom);
        for (int i = 0; i < 2; ++i) {
          auto& host = network.add_host(
              net::Ipv4Addr(192, 168, static_cast<std::uint8_t>(d),
                            static_cast<std::uint8_t>(10 + i)),
              dom, sites[static_cast<std::size_t>(d)], net::Host::Config{});
          hosts.push_back(&host);
          p2p::NodeConfig cfg;
          cfg.port = kPort;
          cfg.bootstrap = {transport::Uri{
              transport::TransportKind::kUdp,
              net::Endpoint{hosts[0]->ip(), kPort}}};
          nodes.push_back(std::make_unique<p2p::Node>(
              p2p::NodeDeps::sim(sim, network, host), cfg));
        }
      }
    }
  }

  std::vector<net::DomainId> nat_domains;
  /// Byzantine fabric (--profile=byzantine): agents riding the every
  /// k-th node, each on its own derived seed.
  std::vector<std::unique_ptr<p2p::AdversaryAgent>> adversaries;
};

/// The composite worst case: a congestion storm, a partition long
/// enough to split the ring into self-consistent fragments (forcing the
/// bootstrap re-probe merge path), and mapping-wiping NAT reboots — the
/// storm still blowing when the partition lands.
net::FaultPlan composite_plan(const SoakNet& soak) {
  net::FaultPlan plan;
  net::FaultSpec storm;
  storm.kind = net::FaultKind::kStorm;
  storm.at = 3 * kMinute + 30 * kSecond;
  storm.duration = 3 * kMinute;
  storm.rate = 0.25;
  storm.magnitude = 60 * kMillisecond;
  plan.events.push_back(storm);

  net::FaultSpec part;
  part.kind = net::FaultKind::kPartition;
  part.at = 4 * kMinute + 30 * kSecond;
  part.duration = 90 * kSecond;  // outlives adaptive keepalive detection
  part.sites = {soak.sites[0]};
  plan.events.push_back(part);

  for (std::size_t d = 0; d < soak.nat_domains.size(); ++d) {
    net::FaultSpec reboot;
    reboot.kind = net::FaultKind::kNatReboot;
    reboot.at = 7 * kMinute + static_cast<SimTime>(d) * kMinute;
    reboot.domain = soak.nat_domains[d];
    plan.events.push_back(reboot);
  }
  return plan;
}

/// The flash-crowd fault: well-known endpoint #1 crashes while the
/// burst is still joining and comes back two minutes later.  Node 0
/// stays untouched, so the crowd always has at least one live endpoint
/// — what it tests is that the crowd ROUTES AROUND the dead one
/// (rotation + backoff) instead of stalling on it.
net::FaultPlan flashcrowd_plan(const SoakNet& soak) {
  net::FaultPlan plan;
  net::FaultSpec crash;
  crash.kind = net::FaultKind::kCrashHost;
  crash.at = 30 * kSecond;
  crash.duration = 2 * kMinute;
  crash.host = soak.hosts[1]->id();
  plan.events.push_back(crash);
  return plan;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos_runner: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

/// Violation postmortem: the implicated nodes' flight recorders (the
/// localized last-N-events view) plus a final per-node fleet snapshot,
/// written next to the failing trace so one artifact directory holds
/// the schedule, the trace, and the postmortem.
void write_postmortem(const SoakNet& soak, const p2p::OracleReport& report,
                      const Options& opt) {
  const std::string base =
      opt.trace_path.empty() ? std::string("chaos") : opt.trace_path;

  std::string body = report.to_string();
  body += '\n';
  std::vector<std::string> seen;
  for (const std::string& brief : report.implicated) {
    if (std::find(seen.begin(), seen.end(), brief) != seen.end()) continue;
    seen.push_back(brief);
    for (const auto& n : soak.nodes) {
      if (n->address().brief() != brief) continue;
      body += '\n';
      body += n->flight().dump(brief);
      break;
    }
  }
  const std::string flight_path = base + ".postmortem.txt";

  p2p::FleetSnapshotter final_snap(/*per_node_lines=*/true);
  std::vector<p2p::Node*> all;
  for (const auto& n : soak.nodes) all.push_back(n.get());
  final_snap.sample(soak.sim.now(), all, soak.sim.executed_events(),
                    soak.sim.pending_events());
  const std::string fleet_path = base + ".fleet.jsonl";

  if (write_file(flight_path, body) &&
      write_file(fleet_path, final_snap.jsonl())) {
    std::printf("postmortem: %s (%zu implicated flight recorders), %s\n",
                flight_path.c_str(), seen.size(), fleet_path.c_str());
  }
}

int run(const Options& opt) {
  // Declared before the overlay: node destructors still emit trace
  // events, so the sink must outlive SoakNet.
  std::unique_ptr<FileTraceSink> sink;
  SoakNet soak(opt);

  net::FaultPlan plan;
  if (opt.byzantine) {
    // The adversaries ARE the fault plan: no network events, so any
    // oracle violation is attributable to forged frames alone.
  } else if (!opt.schedule.empty()) {
    auto parsed = net::FaultPlan::parse(opt.schedule);
    if (!parsed) {
      std::fprintf(stderr, "chaos_runner: malformed --schedule: %s\n",
                   opt.schedule.c_str());
      return 2;
    }
    plan = std::move(*parsed);
  } else if (opt.composite) {
    plan = composite_plan(soak);
  } else if (opt.flashcrowd) {
    plan = flashcrowd_plan(soak);
  } else {
    net::FaultPlan::RandomParams params;
    params.events = opt.events;
    params.start = 3 * kMinute;
    params.horizon = 10 * kMinute;
    params.sites = soak.sites;
    // Node 0 is the bootstrap every crashed node rejoins through; only
    // the back half of the fleet may freeze or crash.
    for (std::size_t i = soak.nodes.size() / 2; i < soak.nodes.size(); ++i) {
      params.hosts.push_back(soak.hosts[i]->id());
    }
    plan = net::FaultPlan::random(opt.seed, params);
  }
  // --profile must ride along in the reproducer: it shapes the topology
  // (NAT domains) that the schedule's domain ids refer to.
  std::string reproducer = "chaos_runner --seed=";
  reproducer.append(std::to_string(opt.seed))
      .append(" --nodes=")
      .append(std::to_string(opt.nodes))
      .append(opt.composite    ? " --profile=composite"
              : opt.flashcrowd ? " --profile=flashcrowd"
              : opt.byzantine  ? " --profile=byzantine"
                               : "");
  if (opt.byzantine) {
    char frac[32];
    std::snprintf(frac, sizeof frac, " --adversary-fraction=%.3f",
                  opt.adversary_fraction);
    reproducer += frac;
    if (opt.no_defenses) reproducer += " --no-defenses";
  } else {
    reproducer += " --schedule=\"" + plan.describe() + "\"";
  }

  if (!opt.trace_path.empty()) {
    sink = std::make_unique<FileTraceSink>(opt.trace_path);
    if (!sink->ok()) {
      std::fprintf(stderr, "chaos_runner: cannot write %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
    soak.sim.trace().attach(sink.get());
  }
  soak.sim.trace().set_sample_rate(opt.sample_rate);

  // Telemetry is pulled between run chunks, never from simulator
  // timers, so instrumented and bare runs execute identical event
  // sequences.  Per-node snapshot lines are capped to mid-size fleets;
  // megascale soaks keep the aggregate fleet lines only.
  const bool telemetry =
      !opt.snapshots_path.empty() || !opt.series_path.empty();
  p2p::FleetSnapshotter snaps(/*per_node_lines=*/opt.nodes <= 1024);
  MetricsTimeSeries series(soak.sim.metrics());
  std::vector<p2p::Node*> all_nodes;
  for (const auto& n : soak.nodes) all_nodes.push_back(n.get());
  SimTime next_sample = 0;
  SimTime last_sampled = static_cast<SimTime>(-1);
  auto maybe_sample = [&] {
    if (!telemetry) return;
    SimTime now = soak.sim.now();
    if (now < next_sample || now == last_sampled) return;
    snaps.sample(now, all_nodes, soak.sim.executed_events(),
                 soak.sim.pending_events());
    series.sample(now);
    next_sample = now + opt.snapshot_period_s * kSecond;
    last_sampled = now;
  };

  for (auto& n : soak.nodes) n->start();
  // Adversaries attack from the first tick: the honest ring has to FORM
  // under fire, not merely survive it.
  for (auto& a : soak.adversaries) a->start();
  // The flashcrowd fault must land mid-crowd — while the simultaneous
  // burst that just started is still joining — so its plan is armed
  // immediately.  Other profiles give the ring a quiet three-minute
  // formation window first.
  if (opt.flashcrowd) soak.network.faults().schedule(plan);
  while (soak.sim.now() < 3 * kMinute) {
    soak.sim.run_for(
        std::min<SimDuration>(opt.snapshot_period_s * kSecond,
                              3 * kMinute - soak.sim.now()));
    maybe_sample();
  }
  if (!opt.flashcrowd) soak.network.faults().schedule(plan);

  // Horizon = the last heal instant; run traffic through it.  Byzantine
  // soaks have no heal instants — their horizon is a fixed attack
  // window long enough for every defense (quarantine windows, replay
  // rings, rate buckets) to cycle several times.
  SimTime horizon = opt.byzantine ? 10 * kMinute : 3 * kMinute;
  for (const net::FaultSpec& e : plan.events) {
    horizon = std::max(horizon, e.at + e.duration);
  }
  int burst = 0;
  while (soak.sim.now() < horizon + kSecond) {
    auto live = soak.live();
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      live[i]->send_data(
          live[(i + 1 + static_cast<std::size_t>(burst)) % live.size()]
              ->address(),
          Bytes{7, 7});
    }
    ++burst;
    soak.sim.run_for(20 * kSecond);
    maybe_sample();
  }
  // Repair window after the last heal, chunked so the snapshots resolve
  // the repair curve rather than skipping to its end state.
  const SimTime repair_end = soak.sim.now() + 5 * kMinute;
  while (soak.sim.now() < repair_end) {
    soak.sim.run_for(
        std::min<SimDuration>(20 * kSecond, repair_end - soak.sim.now()));
    maybe_sample();
  }
  next_sample = 0;  // force one closing sample so every curve ends here
  maybe_sample();

  if (!opt.snapshots_path.empty() &&
      !write_file(opt.snapshots_path, snaps.jsonl())) {
    return 2;
  }
  if (!opt.series_path.empty()) {
    const bool csv = opt.series_path.size() >= 4 &&
                     opt.series_path.compare(opt.series_path.size() - 4, 4,
                                             ".csv") == 0;
    if (!write_file(opt.series_path,
                    csv ? series.to_csv() : series.to_jsonl())) {
      return 2;
    }
  }

  const auto& fs = soak.network.faults().stats();
  std::printf(
      "chaos_runner: seed=%" PRIu64 " nodes=%d events=%zu begun=%" PRIu64
      " healed=%" PRIu64 " dup=%" PRIu64 " reorder=%" PRIu64
      " corrupt=%" PRIu64 "/%" PRIu64 " t=%.0fs\n",
      opt.seed, opt.nodes, plan.events.size(), fs.faults_begun,
      fs.faults_healed, fs.duplicated, fs.reordered, fs.corrupted_dropped,
      fs.corrupted_delivered, to_seconds(soak.sim.now()));
  std::printf("schedule: %s\n", plan.describe().c_str());

  if (soak.network.faults().active_faults() != 0) {
    std::printf("FAIL: %zu fault windows still active after horizon\n",
                soak.network.faults().active_faults());
    std::printf("reproduce: %s\n", reproducer.c_str());
    return 1;
  }
  auto live = soak.live();
  if (live.size() != soak.nodes.size()) {
    std::printf("FAIL: %zu/%zu nodes running after all heals\n", live.size(),
                soak.nodes.size());
    std::printf("reproduce: %s\n", reproducer.c_str());
    return 1;
  }
  if (opt.inject_violation) {
    // The victim's predecessor now holds a near pointer at a dead node;
    // no sim time passes, so the failure detector cannot save it.
    p2p::Node* victim = soak.nodes.back().get();
    std::printf("injecting violation: stopping %s before the oracle sweep\n",
                victim->address().brief().c_str());
    victim->stop();
    live = soak.live();
  }
  // Exhaustive O(n^2) routing sweeps stop scaling past a few hundred
  // nodes; larger fleets get a deterministic stride over the pair set.
  p2p::Oracle::Config oracle_cfg;
  oracle_cfg.seed = opt.seed;
  oracle_cfg.max_route_pairs = live.size() > 256 ? 50000 : 0;
  if (opt.byzantine) {
    // The complete identity roster arms the phantom_identity
    // containment invariant; the adversary cast is echoed into any
    // violation brief.
    for (const auto& n : soak.nodes) {
      oracle_cfg.known_addresses.push_back(n->address());
    }
    for (const auto& a : soak.adversaries) {
      oracle_cfg.adversary_addresses.push_back(a->node().address());
    }
    std::printf("byzantine: %zu adversaries (%.0f%%) defenses=%s",
                soak.adversaries.size(),
                100.0 * static_cast<double>(soak.adversaries.size()) /
                    static_cast<double>(soak.nodes.size()),
                opt.no_defenses ? "off" : "on");
    using AdversaryStats = p2p::AdversaryAgent::Stats;
    AdversaryStats::for_each_counter(
        [&](const char* field, std::uint64_t AdversaryStats::*member) {
          std::uint64_t total = 0;
          for (const auto& a : soak.adversaries) total += a->stats().*member;
          std::printf(" %s=%" PRIu64, field, total);
        });
    std::printf("\n");
  }
  auto report = p2p::Oracle::check(live, soak.sim.now(), oracle_cfg);
  std::printf("%s\n", report.to_string().c_str());
  if (!report.ok) {
    std::printf("reproduce: %s\n", reproducer.c_str());
    write_postmortem(soak, report, opt);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  wow::tools::FlagSet flags("chaos_runner", "");
  flags.value("seed", opt.seed, "fault-schedule RNG seed");
  flags.value("schedule", opt.schedule,
              "replay an explicit fault schedule \"kind@ms+ms:args;...\"");
  flags.value("nodes", opt.nodes,
              "overlay size (4..8192; up to 1048576 with --flyweight)");
  flags.value("events", opt.events, "number of fault events, >= 1");
  flags.value("trace", opt.trace_path, "overlay trace JSONL file");
  flags.on_value("profile", "random|composite|flashcrowd|byzantine",
                 "fault mix",
                 [&](std::string_view v) {
                   opt.composite = v == "composite";
                   opt.flashcrowd = v == "flashcrowd";
                   opt.byzantine = v == "byzantine";
                   return opt.composite || opt.flashcrowd || opt.byzantine ||
                          v == "random";
                 });
  flags.value("adversary-fraction", opt.adversary_fraction,
              "byzantine node fraction, in (0, 0.5]");
  flags.flag("no-defenses", opt.no_defenses,
             "disable protocol self-defense fleet-wide (calibration: "
             "the byzantine fabric must then trip the oracle)");
  flags.value("sample-rate", opt.sample_rate,
              "packet-class trace sampling, in [0, 1]");
  flags.value("snapshots", opt.snapshots_path,
              "periodic fleet health snapshot JSONL (for fleet_report)");
  flags.value("series", opt.series_path,
              "windowed metric time series (.csv or .jsonl)");
  flags.value("snapshot-period", opt.snapshot_period_s,
              "snapshot/series cadence in seconds, >= 1");
  flags.flag("inject-violation", opt.inject_violation,
             "kill a node pre-sweep to exercise the postmortem path");
  flags.flag("flyweight", opt.flyweight,
             "protocol-only node profile (megascale fleets)");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;
  const int max_nodes = opt.flyweight ? kMaxFlyweightNodes : kMaxDefaultNodes;
  if (opt.nodes < 4 || opt.events < 1 || opt.snapshot_period_s < 1 ||
      !(opt.adversary_fraction > 0.0 && opt.adversary_fraction <= 0.5) ||
      !(opt.sample_rate >= 0.0 && opt.sample_rate <= 1.0)) {
    std::fprintf(stderr, "chaos_runner: a flag is out of range; see --help\n");
    return 2;
  }
  if (opt.nodes > max_nodes) {
    if (!opt.flyweight && opt.nodes <= kMaxFlyweightNodes) {
      std::fprintf(stderr,
                   "chaos_runner: --nodes=%d exceeds the full-service cap of "
                   "%d; pass --flyweight to run the protocol-only node "
                   "profile (valid to %d nodes)\n",
                   opt.nodes, kMaxDefaultNodes, kMaxFlyweightNodes);
    } else {
      std::fprintf(stderr, "chaos_runner: --nodes=%d exceeds the limit of %d\n",
                   opt.nodes, max_nodes);
    }
    return 2;
  }
  if (opt.flyweight && opt.byzantine) {
    // NodeConfig::flyweight() already strips the defense plane (ledgers,
    // flight rings); a byzantine soak there would be --no-defenses in
    // disguise.
    std::fprintf(stderr,
                 "chaos_runner: --flyweight cannot run --profile=byzantine "
                 "(the flyweight profile disables the defense plane)\n");
    return 2;
  }
  if (opt.no_defenses && !opt.byzantine) {
    std::fprintf(stderr,
                 "chaos_runner: --no-defenses requires --profile=byzantine\n");
    return 2;
  }
  if (opt.flyweight && opt.composite) {
    // The composite profile's hairpin-less NAT pair is only linkable
    // through relay tunnels, which flyweight disables.
    std::fprintf(stderr,
                 "chaos_runner: --flyweight disables relay fallback and "
                 "cannot run --profile=composite\n");
    return 2;
  }
  return run(opt);
}
