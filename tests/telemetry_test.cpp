#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "p2p/node_inspector.h"
#include "test_util.h"

namespace wow {
namespace {

// ---------------------------------------------------------------------
// Histogram percentiles

TEST(HistogramPercentile, AccurateToOneBucketWidth) {
  // 1000 distinct values, one per bucket: the interpolated percentile
  // must land within a bucket width of the exact order statistic.
  Histogram h(0.0, 1000.0, 1000);
  std::vector<double> exact_values;
  for (int i = 0; i < 1000; ++i) {
    h.add(i + 0.5);
    exact_values.push_back(i + 0.5);
  }
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    double exact = percentile(exact_values, p);
    EXPECT_NEAR(h.percentile(p), exact, 1.0) << "p=" << p;
  }
}

TEST(HistogramPercentile, CoarseBucketsDegradeToBucketWidth) {
  Histogram coarse(0.0, 1000.0, 10);  // bucket width 100
  std::vector<double> exact_values;
  for (int i = 0; i < 1000; ++i) {
    coarse.add(i + 0.5);
    exact_values.push_back(i + 0.5);
  }
  for (double p : {10.0, 50.0, 95.0}) {
    EXPECT_NEAR(coarse.percentile(p), percentile(exact_values, p), 100.0)
        << "p=" << p;
  }
}

TEST(HistogramPercentile, SkewedMassStaysAccurate) {
  // 99% of the mass at the low end, 1% in the tail: p50 reads from the
  // dense region, p99.5 from the sparse tail.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 990; ++i) h.add(5.5);
  for (int i = 0; i < 10; ++i) h.add(90.5);
  EXPECT_NEAR(h.percentile(50.0), 5.5, 1.0);
  EXPECT_NEAR(h.percentile(99.5), 90.5, 1.0);
}

TEST(HistogramPercentile, ClampedTailsReportEdgeBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.add(-100.0);  // clamps into the first bucket
  h.add(500.0);   // clamps into the last
  EXPECT_LT(h.percentile(1.0), 1.0 + 1e-9);
  EXPECT_GT(h.percentile(99.0), 9.0 - 1e-9);
  EXPECT_EQ(h.total(), 2u);
}

TEST(HistogramPercentile, EmptyHistogramIsZero) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

// ---------------------------------------------------------------------
// Enum drift: adding an enumerator without a name (or a duplicate name)
// must fail here, not silently print "unknown" in reports.

TEST(EnumDrift, TraceClassNamesUniqueAndKnown) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(TraceClass::kCount); ++i) {
    const char* s = to_string(static_cast<TraceClass>(i));
    EXPECT_STRNE(s, "unknown") << "TraceClass " << i;
    EXPECT_TRUE(names.insert(s).second) << "duplicate name " << s;
  }
  EXPECT_STREQ(to_string(TraceClass::kCount), "unknown");
}

TEST(EnumDrift, FlightKindNamesUniqueAndKnown) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(FlightKind::kCount); ++i) {
    const char* s = to_string(static_cast<FlightKind>(i));
    EXPECT_STRNE(s, "unknown") << "FlightKind " << i;
    EXPECT_TRUE(names.insert(s).second) << "duplicate name " << s;
  }
  EXPECT_STREQ(to_string(FlightKind::kCount), "unknown");
}

// ---------------------------------------------------------------------
// Deterministic sampling

TEST(TraceSampling, VerdictIsDeterministicPerKey) {
  StringTraceSink sink_a;
  StringTraceSink sink_b;
  Tracer a;
  Tracer b;
  a.attach(&sink_a);
  b.attach(&sink_b);
  a.set_sample_rate(0.25);
  b.set_sample_rate(0.25);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    EXPECT_EQ(a.sample(TraceClass::kPacket, key),
              b.sample(TraceClass::kPacket, key))
        << "key " << key;
  }
  EXPECT_EQ(a.dropped_by_sampling(), b.dropped_by_sampling());
}

TEST(TraceSampling, KeptFractionTracksRate) {
  StringTraceSink sink;
  Tracer t;
  t.attach(&sink);
  t.set_sample_rate(0.25);
  const std::uint64_t n = 100000;
  std::uint64_t kept = 0;
  for (std::uint64_t key = 0; key < n; ++key) {
    if (t.sample(TraceClass::kPacket, key)) ++kept;
  }
  EXPECT_NEAR(static_cast<double>(kept) / static_cast<double>(n), 0.25,
              0.01);
  EXPECT_EQ(kept + t.dropped_by_sampling(), n);
}

TEST(TraceSampling, RateOneShortCircuits) {
  StringTraceSink sink;
  Tracer t;
  t.attach(&sink);  // default rate 1.0
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(t.sample(TraceClass::kPacket, key));
  }
  EXPECT_EQ(t.dropped_by_sampling(), 0u);
}

TEST(TraceSampling, RateZeroDropsEverything) {
  StringTraceSink sink;
  Tracer t;
  t.attach(&sink);
  t.set_sample_rate(0.0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_FALSE(t.sample(TraceClass::kPacket, key));
  }
  EXPECT_EQ(t.dropped_by_sampling(), 1000u);
}

TEST(TraceSampling, NoSinkMeansNoDropAccounting) {
  // Refusals caused by a detached sink or a disabled class are not
  // "sampling drops" — the gauge must isolate rate-induced loss.
  Tracer t;
  t.set_sample_rate(0.5);
  EXPECT_FALSE(t.sample(TraceClass::kPacket, 1));
  EXPECT_EQ(t.dropped_by_sampling(), 0u);

  StringTraceSink sink;
  t.attach(&sink);
  t.set_class_enabled(TraceClass::kPacket, false);
  EXPECT_FALSE(t.sample(TraceClass::kPacket, 1));
  EXPECT_EQ(t.dropped_by_sampling(), 0u);
}

TEST(TraceSampling, RateIsClamped) {
  Tracer t;
  t.set_sample_rate(7.0);
  EXPECT_EQ(t.sample_rate(), 1.0);
  t.set_sample_rate(-3.0);
  EXPECT_EQ(t.sample_rate(), 0.0);
}

// ---------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, RingIsBoundedAndOrdered) {
  FlightRecorder fr(4);
  for (int i = 1; i <= 6; ++i) {
    fr.record(i * kSecond, FlightKind::kConnAdded, "peer", i, 0);
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.recorded(), 6u);
  // Oldest -> newest: entries 3..6 survive, 1..2 were overwritten.
  std::vector<std::int32_t> seen;
  fr.for_each([&](const FlightRecorder::Entry& e) { seen.push_back(e.a); });
  EXPECT_EQ(seen, (std::vector<std::int32_t>{3, 4, 5, 6}));
}

TEST(FlightRecorderTest, CapacityZeroDisables) {
  FlightRecorder fr(0);
  fr.record(kSecond, FlightKind::kStart, "x", 1, 2);
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.recorded(), 0u);
}

TEST(FlightRecorderTest, PeerBriefIsTruncatedSafely) {
  FlightRecorder fr(2);
  fr.record(kSecond, FlightKind::kConnLost,
            "a-much-longer-name-than-fits", 1, 2);
  fr.for_each([&](const FlightRecorder::Entry& e) {
    EXPECT_EQ(std::string(e.peer), "a-much-lon");  // 10 chars + NUL
  });
}

TEST(FlightRecorderTest, DumpIsHumanReadable) {
  FlightRecorder fr(8);
  fr.record(500 * kMillisecond, FlightKind::kStart, "", 17000, 0);
  fr.record(2 * kSecond, FlightKind::kConnLost, "ab12cd34", 2, 1);
  std::string dump = fr.dump("deadbeef");
  EXPECT_NE(dump.find("flight[deadbeef]: 2/8 entries (2 recorded)"),
            std::string::npos);
  EXPECT_NE(dump.find("node.start"), std::string::npos);
  EXPECT_NE(dump.find("conn.lost"), std::string::npos);
  EXPECT_NE(dump.find("peer=ab12cd34"), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics time series

TEST(MetricsTimeSeriesTest, CountersReportWindowDeltas) {
  MetricsRegistry reg;
  double reqs = 0;
  reg.add_callback(MetricKind::kCounter, "reqs", {"n1", "node"},
                   [&reqs] { return reqs; });
  MetricsTimeSeries ts(reg);

  reqs += 5;
  ts.sample(kSecond);
  reqs += 3;
  ts.sample(2 * kSecond);
  ts.sample(3 * kSecond);  // idle window

  ASSERT_EQ(ts.series().size(), 1u);
  const auto& s = ts.series()[0];
  EXPECT_EQ(s.name, "reqs");
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_EQ(s.points[0].value, 5.0);
  EXPECT_EQ(s.points[1].value, 3.0);
  EXPECT_EQ(s.points[2].value, 0.0);
  EXPECT_EQ(s.points[1].t, 2.0);
  EXPECT_EQ(ts.windows(), 3u);
}

TEST(MetricsTimeSeriesTest, GaugesReportLevelsNotDeltas) {
  MetricsRegistry reg;
  double level = 10.0;
  reg.add_callback(MetricKind::kGauge, "depth", {"", "sim"},
                   [&] { return level; });
  MetricsTimeSeries ts(reg);
  ts.sample(kSecond);
  level = 4.0;
  ts.sample(2 * kSecond);
  ASSERT_EQ(ts.series().size(), 1u);
  EXPECT_EQ(ts.series()[0].points[0].value, 10.0);
  EXPECT_EQ(ts.series()[0].points[1].value, 4.0);
}

TEST(MetricsTimeSeriesTest, ExportsCsvAndJsonl) {
  MetricsRegistry reg;
  double reqs = 2;
  reg.add_callback(MetricKind::kCounter, "reqs", {"n1", "node"},
                   [&reqs] { return reqs; });
  MetricsTimeSeries ts(reg);
  ts.sample(kSecond);

  std::string csv = ts.to_csv();
  EXPECT_NE(csv.find("t,name,node,component,kind,value"), std::string::npos);
  EXPECT_NE(csv.find("reqs"), std::string::npos);

  std::string jsonl = ts.to_jsonl();
  EXPECT_NE(jsonl.find("\"name\":\"reqs\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"value\":2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Node inspector and fleet snapshots

TEST(FleetSnapshotTest, InspectorMatchesNodeState) {
  testing::PublicOverlay net(8, 31);
  net.start_all();
  net.sim.run_until(3 * kMinute);

  const p2p::Node& n = *net.nodes[3];
  p2p::NodeSnapshot s =
      p2p::NodeInspector::inspect(n, net.sim.now());
  EXPECT_EQ(s.brief, n.address().brief());
  EXPECT_TRUE(s.running);
  EXPECT_EQ(static_cast<std::size_t>(s.near + s.far + s.leaf + s.shortcut +
                                     s.relay),
            n.connections().size());
  EXPECT_EQ(s.flight_recorded, n.flight().recorded());
  EXPECT_GT(s.flight_recorded, 0u);  // at least node.start + conn.added
  if (s.routable) {
    EXPECT_GE(s.routable_since_s, 0.0);
  }
}

TEST(FleetSnapshotTest, FleetAggregatesAndJsonl) {
  testing::PublicOverlay net(8, 32);
  net.start_all();
  net.sim.run_until(3 * kMinute);

  p2p::FleetSnapshotter snaps(/*per_node_lines=*/true);
  std::vector<p2p::Node*> all;
  for (auto& n : net.nodes) all.push_back(n.get());
  snaps.sample(net.sim.now(), all, net.sim.executed_events(),
               net.sim.pending_events());
  net.sim.run_for(kMinute);
  snaps.sample(net.sim.now(), all, net.sim.executed_events(),
               net.sim.pending_events());

  ASSERT_EQ(snaps.snapshots().size(), 2u);
  const auto& f = snaps.snapshots()[0];
  EXPECT_EQ(f.nodes, 8u);
  EXPECT_EQ(f.running, 8u);
  EXPECT_EQ(static_cast<int>(f.routable), net.routable_count());
  EXPECT_GT(f.conns_p50, 0.0);
  EXPECT_GE(f.conns_max, f.conns_p95);
  EXPECT_GE(f.conns_p95, f.conns_p50);
  EXPECT_GE(f.conns_p50, f.conns_min);
  // Second snapshot has an executed-events rate over the gap.
  EXPECT_GT(snaps.snapshots()[1].events_per_sec, 0.0);

  const std::string& jsonl = snaps.jsonl();
  std::size_t fleet_lines = 0;
  std::size_t node_lines = 0;
  for (std::size_t pos = 0;
       (pos = jsonl.find("{\"kind\":\"fleet\"", pos)) != std::string::npos;
       ++pos) {
    ++fleet_lines;
  }
  for (std::size_t pos = 0;
       (pos = jsonl.find("{\"kind\":\"node\"", pos)) != std::string::npos;
       ++pos) {
    ++node_lines;
  }
  EXPECT_EQ(fleet_lines, 2u);
  EXPECT_EQ(node_lines, 16u);  // 8 nodes x 2 samples
}

TEST(FleetSnapshotTest, PerNodeLinesCanBeDisabled) {
  testing::PublicOverlay net(4, 33);
  net.start_all();
  net.sim.run_until(kMinute);
  p2p::FleetSnapshotter snaps(/*per_node_lines=*/false);
  std::vector<p2p::Node*> all;
  for (auto& n : net.nodes) all.push_back(n.get());
  snaps.sample(net.sim.now(), all, net.sim.executed_events(),
               net.sim.pending_events());
  EXPECT_EQ(snaps.jsonl().find("\"kind\":\"node\""), std::string::npos);
  EXPECT_NE(snaps.jsonl().find("\"kind\":\"fleet\""), std::string::npos);
}

/// Counters past six digits stay exact: fleet_report subtracts them.
TEST(FleetSnapshotTest, CountersAreWrittenExactly) {
  p2p::FleetSnapshotter snaps(/*per_node_lines=*/false);
  snaps.sample(kMinute, {}, /*executed_events=*/1234567,
               /*pending_events=*/0);
  EXPECT_NE(snaps.jsonl().find("\"executed\":1234567,"), std::string::npos)
      << snaps.jsonl();
}

TEST(FleetSnapshotTest, FlightCapacityZeroDisablesRecording) {
  p2p::NodeConfig cfg;
  cfg.flight_capacity = 0;
  testing::PublicOverlay net(4, 34, cfg);
  net.start_all();
  net.sim.run_until(kMinute);
  for (auto& n : net.nodes) {
    EXPECT_EQ(n->flight().recorded(), 0u);
    EXPECT_EQ(n->flight().capacity(), 0u);
  }
}

}  // namespace
}  // namespace wow
