#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "ipop/icmp_service.h"
#include "middleware/nfs.h"
#include "middleware/pbs.h"
#include "middleware/pvm.h"
#include "test_util.h"
#include "wow/testbed.h"

namespace wow {
namespace {

/// A fingerprint of an overlay's end state: connection sets, stats
/// counters, and network totals.  Two runs with the same seed must
/// produce identical fingerprints — the repository's core guarantee
/// that experiments are reproducible.
std::string fingerprint(testing::PublicOverlay& net) {
  std::ostringstream out;
  for (auto& n : net.nodes) {
    out << n->address().to_hex() << ':';
    n->connections().for_each([&](const p2p::Connection& c) {
      out << c.addr.brief() << '/' << p2p::to_string(c.type) << '@'
          << c.remote.to_string() << ',';
    });
    const auto& s = n->stats();
    out << '|' << s.data_sent << '/' << s.data_delivered << '/'
        << s.data_forwarded << '/' << s.connections_added << ';';
  }
  const auto& ns = net.network.stats();
  out << "net:" << ns.sent << '/' << ns.delivered << '/'
      << ns.drops(net::Network::DropReason::kLoss) << '/'
      << ns.drops(net::Network::DropReason::kNatFiltered);
  return out.str();
}

std::string run_overlay(std::uint64_t seed) {
  testing::PublicOverlay net(10, seed);
  net.start_all();
  net.sim.run_until(3 * kMinute);
  // Drive some traffic so data-plane paths execute too.
  for (auto& a : net.nodes) {
    for (auto& b : net.nodes) {
      if (a != b) a->send_data(b->address(), Bytes{7});
    }
  }
  net.sim.run_for(kMinute);
  return fingerprint(net);
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  EXPECT_EQ(run_overlay(12345), run_overlay(12345));
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_overlay(12345), run_overlay(54321));
}

/// The observability layer is a pure observer: attaching a trace sink
/// and snapshotting metrics mid-run must leave the simulation byte-
/// identical to an uninstrumented run.
TEST(Determinism, TracingAndMetricsDoNotPerturbRuns) {
  auto run = [](bool instrumented, std::uint64_t* executed) {
    StringTraceSink sink;
    testing::PublicOverlay net(10, 4242);
    if (instrumented) net.sim.trace().attach(&sink);
    net.start_all();
    net.sim.run_until(3 * kMinute);
    if (instrumented) {
      // Mid-run metric snapshots must not perturb either.
      (void)net.sim.metrics().to_json();
      (void)net.sim.metrics().to_prometheus();
    }
    for (auto& a : net.nodes) {
      for (auto& b : net.nodes) {
        if (a != b) a->send_data(b->address(), Bytes{7});
      }
    }
    net.sim.run_for(kMinute);
    *executed = net.sim.executed_events();
    std::string fp = fingerprint(net);
    if (instrumented) {
      EXPECT_FALSE(sink.lines().empty());
      net.sim.trace().detach();
    }
    return fp;
  };
  std::uint64_t plain_events = 0;
  std::uint64_t traced_events = 0;
  std::string plain = run(false, &plain_events);
  std::string traced = run(true, &traced_events);
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain_events, traced_events);
}

/// Trace sampling is pure observation: thinning the packet-class trace
/// must not move a single protocol event at any rate, rate 1.0 must be
/// byte-identical to a run that never configured sampling, and the
/// sampling verdicts themselves must reproduce across runs.
TEST(Determinism, TraceSamplingDoesNotPerturbRuns) {
  struct Run {
    std::string fp;
    std::uint64_t executed = 0;
    std::uint64_t dropped = 0;
    std::vector<std::string> trace;
  };
  auto run = [](double rate, bool set_rate) {
    StringTraceSink sink;
    testing::PublicOverlay net(10, 9292);
    net.sim.trace().attach(&sink);
    if (set_rate) net.sim.trace().set_sample_rate(rate);
    net.start_all();
    net.sim.run_until(3 * kMinute);
    for (auto& a : net.nodes) {
      for (auto& b : net.nodes) {
        if (a != b) a->send_data(b->address(), Bytes{7});
      }
    }
    net.sim.run_for(kMinute);
    Run r;
    r.fp = fingerprint(net);
    r.executed = net.sim.executed_events();
    r.dropped = net.sim.trace().dropped_by_sampling();
    net.sim.trace().detach();
    r.trace = sink.lines();
    return r;
  };
  Run unsampled = run(1.0, /*set_rate=*/false);
  Run full = run(1.0, /*set_rate=*/true);
  Run one_pct = run(0.01, /*set_rate=*/true);
  Run zero = run(0.0, /*set_rate=*/true);

  // Protocol behavior is identical at every rate.
  EXPECT_EQ(unsampled.fp, full.fp);
  EXPECT_EQ(unsampled.fp, one_pct.fp);
  EXPECT_EQ(unsampled.fp, zero.fp);
  EXPECT_EQ(unsampled.executed, full.executed);
  EXPECT_EQ(unsampled.executed, one_pct.executed);
  EXPECT_EQ(unsampled.executed, zero.executed);

  // rate >= 1.0 short-circuits the hash: byte-identical trace, nothing
  // counted as dropped.
  EXPECT_EQ(unsampled.trace, full.trace);
  EXPECT_EQ(full.dropped, 0u);

  // Thinned traces shrink and account for every suppressed record;
  // always-on classes keep the trace non-empty even at rate 0.
  ASSERT_FALSE(zero.trace.empty());
  EXPECT_LT(one_pct.trace.size(), unsampled.trace.size());
  EXPECT_GT(one_pct.dropped, 0u);
  EXPECT_LE(zero.trace.size(), one_pct.trace.size());
  EXPECT_GE(zero.dropped, one_pct.dropped);

  // Which packets survive the rate is itself deterministic.
  Run one_pct_again = run(0.01, /*set_rate=*/true);
  EXPECT_EQ(one_pct.trace, one_pct_again.trace);
  EXPECT_EQ(one_pct.dropped, one_pct_again.dropped);
}

/// The fault fabric is part of the deterministic core: the same seed
/// and fault plan must reproduce the run — and its trace — byte for
/// byte, or the chaos harness's (seed, schedule) reproducer is a lie.
TEST(Determinism, ChaosScheduleRunsAreByteIdentical) {
  auto run = [](std::vector<std::string>* trace) {
    StringTraceSink sink;
    testing::PublicOverlay net(10, 6060);
    net.sim.trace().attach(&sink);
    net.start_all();
    net.sim.run_until(3 * kMinute);

    net::FaultPlan::RandomParams params;
    params.start = net.sim.now();
    params.horizon = net.sim.now() + 5 * kMinute;
    params.sites = net.sites;
    for (std::size_t i = 5; i < net.nodes.size(); ++i) {
      params.hosts.push_back(net.hosts[i]->id());
    }
    net.network.faults().schedule(net::FaultPlan::random(13, params));

    for (int burst = 0; burst < 18; ++burst) {
      auto& target = net.nodes[static_cast<std::size_t>(burst) %
                               net.nodes.size()];
      for (auto& a : net.nodes) {
        if (a != target) a->send_data(target->address(), Bytes{9});
      }
      net.sim.run_for(20 * kSecond);
    }
    std::string fp = fingerprint(net);
    net.sim.trace().detach();
    *trace = sink.lines();
    return fp;
  };
  std::vector<std::string> trace_a;
  std::vector<std::string> trace_b;
  std::string fp_a = run(&trace_a);
  std::string fp_b = run(&trace_b);
  EXPECT_EQ(fp_a, fp_b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
}

TEST(Determinism, TestbedCountersReproduce) {
  auto run = [](std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.planetlab_routers = 24;
    cfg.planetlab_hosts = 8;
    Testbed bed(cfg);
    sim::Simulator& sim = bed.simulator();
    bed.start_all(3 * kMinute);
    sim.run_for(3 * kMinute);
    std::ostringstream out;
    out << bed.routable_compute_nodes() << '|'
        << bed.network().stats().sent << '|'
        << bed.network().stats().delivered << '|'
        << sim.executed_events();
    return out.str();
  };
  EXPECT_EQ(run(777), run(777));
}

/// PBS and PVM hand work to idle workers in the order the workers
/// connected, never in the order of their channels' heap addresses: a
/// rerun made while an assortment of heap blocks is held assigns every
/// job to the same worker at the same time.
TEST(Determinism, MiddlewareDispatchIgnoresHeapLayout) {
  auto run = [] {
    std::ostringstream out;
    testing::IpopOverlay net(5);
    net.start_all();
    net.sim.run_until(kMinute);
    vtcp::TcpStack head(net.sim, *net.nodes[0]);
    mw::NfsServer nfs(net.sim, head);
    mw::PbsServer pbs(net.sim, head, nfs);
    mw::PvmWorkload workload;
    workload.rounds = 3;
    workload.tasks_per_round = 2;  // fewer tasks than workers
    workload.task_seconds = 4.0;
    mw::PvmMaster master(net.sim, head, workload);
    std::vector<std::unique_ptr<vtcp::TcpStack>> stacks;
    std::vector<std::unique_ptr<mw::CpuExecutor>> cpus;
    std::vector<std::unique_ptr<mw::PbsWorker>> pbs_workers;
    std::vector<std::unique_ptr<mw::PvmWorker>> pvm_workers;
    for (int i = 1; i <= 4; ++i) {
      auto& node = *net.nodes[static_cast<std::size_t>(i)];
      stacks.push_back(std::make_unique<vtcp::TcpStack>(net.sim, node));
      cpus.push_back(std::make_unique<mw::CpuExecutor>(net.sim, 0.25 * i));
      // Appended, not `"w" + std::to_string(i)`: GCC 12 at -O3 reports a
      // false -Wrestrict on that temporary in this function.
      std::string name = "w";
      name += std::to_string(i);
      pbs_workers.push_back(std::make_unique<mw::PbsWorker>(
          net.sim, *stacks.back(), *cpus.back(), net.vip(0), name));
      pbs_workers.back()->start();
    }
    net.sim.run_for(30 * kSecond);
    for (std::uint64_t j = 0; j < 6; ++j) {
      pbs.qsub(mw::JobSpec{j, 5.0, 10000, 1000});
    }
    net.sim.run_for(3 * kMinute);
    for (const mw::JobRecord& r : pbs.completed()) {
      out << r.spec.id << '@' << r.worker << ':' << r.started << '-'
          << r.finished << ';';
    }
    for (std::size_t i = 0; i < stacks.size(); ++i) {
      pvm_workers.push_back(std::make_unique<mw::PvmWorker>(
          net.sim, *stacks[i], *cpus[i], net.vip(0)));
      pvm_workers.back()->start();
    }
    double makespan = -1.0;
    master.run(4, [&](double s) { makespan = s; });
    net.sim.run_for(5 * kMinute);
    out << "|pvm " << makespan;
    for (const auto& cpu : cpus) out << ' ' << cpu->completed();
    return out.str();
  };
  std::string first = run();
  ASSERT_NE(first.find("5@"), std::string::npos) << first;
  // Free every other block of an assortment of sizes and hold the
  // rest: the rerun's allocations then land in scattered holes.
  std::vector<std::unique_ptr<char[]>> held;
  for (std::size_t i = 0; i < 4096; ++i) {
    held.push_back(std::make_unique<char[]>(16 + (i * 40) % 640));
  }
  for (std::size_t i = 0; i < held.size(); i += 2) held[i].reset();
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace wow
