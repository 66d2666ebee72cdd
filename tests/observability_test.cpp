#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "test_util.h"

namespace wow {
namespace {

TEST(MetricsRegistry, GaugeCallbackAndRemove) {
  MetricsRegistry reg;
  double live = 1.5;
  MetricId id = reg.add_callback(MetricKind::kGauge, "depth", {},
                                 [&live] { return live; });
  live = 7.0;
  auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);

  reg.remove(id);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());

  // Registering the same name again exports the new callback.
  double other = 3.0;
  reg.add_callback(MetricKind::kGauge, "depth", {},
                   [&other] { return other; });
  samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
}

/// Each registration is its own entry: two registrants of one name and
/// labels both export, and one's remove() leaves the other in place.
TEST(MetricsRegistry, RemoveLeavesOtherRegistrantsAlone) {
  MetricsRegistry reg;
  MetricLabels a{"n1", "node"};
  MetricId first =
      reg.add_callback(MetricKind::kCounter, "pkts", a, [] { return 1.0; });
  reg.add_callback(MetricKind::kCounter, "pkts", a, [] { return 2.0; });
  EXPECT_EQ(reg.size(), 2u);

  reg.remove(first);
  auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "pkts");
  EXPECT_EQ(samples[0].labels, a);
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
}

TEST(MetricsRegistry, JsonCarriesLabels) {
  MetricsRegistry reg;
  double pkts = 42;
  reg.add_callback(MetricKind::kCounter, "pkts", MetricLabels{"abcd", "node"},
                   [&pkts] { return pkts; });
  std::string json = reg.to_json();
  EXPECT_NE(json.find("\"node\":\"abcd\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"node\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

TEST(Logger, WowLogBuildsMessageLazily) {
  Logger logger(LogLevel::kWarn);
  int built = 0;
  auto expensive = [&built] {
    ++built;
    return std::string("message");
  };
  WOW_LOG(logger, LogLevel::kDebug, 0, "linking", expensive());
  EXPECT_EQ(built, 0);  // disabled: never constructed
  // Route the enabled call to /dev/null rather than polluting stderr.
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  Logger quiet(LogLevel::kTrace, sink);
  WOW_LOG(quiet, LogLevel::kDebug, 0, "linking", expensive());
  EXPECT_EQ(built, 1);
  std::fclose(sink);
}

TEST(Tracer, DisabledIsNullObject) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.event(0, "c", "n", "ev", {{"k", 1}});
  EXPECT_EQ(tracer.begin_span(0, "c", "n", "ev"), 0u);
  tracer.end_span(0, "c", "n", "ev", 0);
}

TEST(Tracer, EmitsJsonRecords) {
  Tracer tracer;
  StringTraceSink sink;
  tracer.attach(&sink);
  tracer.event(1500000, "node", "ab12", "packet.send",
               {{"dst", "cd34"}, {"hops", 3}});
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_EQ(sink.lines()[0],
            "{\"t\":1.500000,\"ev\":\"packet.send\",\"c\":\"node\","
            "\"node\":\"ab12\",\"dst\":\"cd34\",\"hops\":3}");
}

TEST(Tracer, SpansCorrelate) {
  Tracer tracer;
  StringTraceSink sink;
  tracer.attach(&sink);
  std::uint64_t s1 = tracer.begin_span(0, "linking", "n", "link.attempt");
  std::uint64_t s2 = tracer.begin_span(0, "linking", "n", "link.attempt");
  EXPECT_NE(s1, 0u);
  EXPECT_NE(s2, s1);
  tracer.end_span(2000000, "linking", "n", "link.established", s1,
                  {{"elapsed_s", 2.0}});
  ASSERT_EQ(sink.lines().size(), 3u);
  std::string want = "\"span\":";
  want += std::to_string(s1);
  EXPECT_NE(sink.lines()[0].find(want), std::string::npos);
  EXPECT_NE(sink.lines()[2].find(want), std::string::npos);
  tracer.detach();
  EXPECT_FALSE(tracer.enabled());
}

TEST(Tracer, EscapesStrings) {
  Tracer tracer;
  StringTraceSink sink;
  tracer.attach(&sink);
  tracer.event(0, "c", "", "ev", {{"msg", "a\"b\\c\nd"}});
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_NE(sink.lines()[0].find("a\\\"b\\\\c\\nd"), std::string::npos);
}

/// End-to-end: a small overlay run with a sink attached must produce the
/// join/CTM/linking event stream trace_report consumes, and the metrics
/// registry must cover every instrumented subsystem.
TEST(OverlayObservability, TraceAndMetricsCoverJoin) {
  testing::PublicOverlay net(8, 11);
  StringTraceSink sink;
  net.sim.trace().attach(&sink);
  net.start_all();
  net.sim.run_until(2 * kMinute);
  for (auto& a : net.nodes) {
    for (auto& b : net.nodes) {
      if (a != b) a->send_data(b->address(), Bytes{1, 2, 3});
    }
  }
  net.sim.run_for(30 * kSecond);
  net.sim.trace().detach();

  EXPECT_EQ(net.routable_count(), 8);

  auto count_event = [&](std::string_view name) {
    std::string needle = "\"ev\":\"";
    needle += name;
    needle += "\"";
    std::size_t n = 0;
    for (const std::string& line : sink.lines()) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_event("node.start"), 8u);
  EXPECT_EQ(count_event("node.routable"), 8u);
  EXPECT_GT(count_event("ctm.request"), 0u);
  EXPECT_GT(count_event("ctm.reply"), 0u);
  EXPECT_GT(count_event("link.attempt"), 0u);
  EXPECT_GT(count_event("link.established"), 0u);
  EXPECT_GT(count_event("conn.added"), 0u);
  EXPECT_GT(count_event("packet.deliver"), 0u);

  // Every record is one-line JSON ending in '}' with the required head.
  for (const std::string& line : sink.lines()) {
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  }

  std::string json = net.sim.metrics().to_json();
  EXPECT_NE(json.find("\"component\":\"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"node\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"linking\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node_connections\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sim_pending_events\""), std::string::npos);
}

/// A started two-node fleet, half a simulated minute in.
struct StartedPair : testing::PublicOverlay {
  StartedPair() : PublicOverlay(2, 3) {
    start_all();
    sim.run_until(30 * kSecond);
  }
};

/// The text format allows one TYPE line per family and wants the
/// family's samples grouped after it.  Registration order interleaves
/// families (node_data_sent of node 1 comes after node 0's whole set),
/// so an export in registration order breaks both rules.
TEST(OverlayObservability, PrometheusGroupsEachFamilyUnderOneTypeLine) {
  StartedPair net;
  std::istringstream in(net.sim.metrics().to_prometheus());
  std::map<std::string, std::string> type_of;  // family -> kind
  std::set<std::string> closed;                // families already left
  std::string family;
  std::size_t samples = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string name;
      std::string kind;
      words >> name >> kind;
      EXPECT_TRUE(type_of.emplace(name, kind).second)
          << name << " has a second TYPE line";
      if (!family.empty()) closed.insert(family);
      family = name;
      continue;
    }
    ++samples;
    std::string name = line.substr(0, line.find('{'));
    EXPECT_EQ(name, family) << "sample outside its family's group: " << line;
    EXPECT_EQ(closed.count(name), 0u) << "family split: " << line;
  }
  EXPECT_EQ(samples, net.sim.metrics().size());
  EXPECT_EQ(type_of["wow_node_data_sent"], "counter");
  EXPECT_EQ(type_of["wow_sim_pending_events"], "gauge");
}

/// Only levels are gauges; every count that only grows is a counter, so
/// rate() works on it and time series record it as window deltas.  Each
/// node exports every NodeStats and linking field, named after it.
TEST(OverlayObservability, CountersExportAsCountersAndLevelsAsGauges) {
  StartedPair net;
  const std::set<std::string> levels = {
      "node_connections", "node_routable",        "node_peer_cache_size",
      "sim_pending_events", "sim_queue_tombstones", "sim_now_seconds"};
  std::set<std::string> gauges;
  std::map<std::pair<std::string, std::string>, int> per_node;
  for (const auto& s : net.sim.metrics().snapshot()) {
    if (s.kind == MetricKind::kGauge) {
      gauges.insert(s.name);
    } else {
      EXPECT_EQ(s.kind, MetricKind::kCounter) << s.name;
      EXPECT_EQ(levels.count(s.name), 0u) << s.name;
    }
    ++per_node[{s.labels.node, s.name}];
  }
  EXPECT_EQ(gauges, levels);

  std::size_t fields = 0;
  for (const auto& node : net.nodes) {
    p2p::NodeStats::for_each_counter(
        [&](const char* field, std::uint64_t p2p::NodeStats::*) {
          ++fields;
          EXPECT_EQ((per_node[{node->brief(), std::string("node_") + field}]),
                    1)
              << field;
        });
    using LinkStats = p2p::LinkingEngine::Stats;
    LinkStats::for_each_counter(
        [&](const char* field, std::uint64_t LinkStats::*) {
          ++fields;
          EXPECT_EQ((per_node[{node->brief(), std::string("link_") + field}]),
                    1)
              << field;
        });
  }
  // The visitors walk every counter the two structs hold.
  constexpr std::size_t kNodeFields =
      (sizeof(p2p::NodeStats) - sizeof(p2p::NodeStats::lost_by_cause)) /
      sizeof(std::uint64_t);
  constexpr std::size_t kLinkFields =
      sizeof(p2p::LinkingEngine::Stats) / sizeof(std::uint64_t);
  EXPECT_EQ(fields, net.nodes.size() * (kNodeFields + kLinkFields));
}

/// Two nodes with one address (a process rebuilt before the old one is
/// torn down) register the same names and labels.  Destroying the first
/// must leave the second's samples in place.
TEST(OverlayObservability, DestroyedNodeLeavesSameAddressNodeMetrics) {
  sim::Simulator sim(5);
  net::Network network(sim);
  auto site = network.add_site("s");
  auto& host = network.add_host(net::Ipv4Addr(128, 1, 0, 1),
                                net::Network::kInternet, site, {});
  auto first = std::make_unique<p2p::Node>(
      p2p::NodeDeps::sim(sim, network, host), p2p::NodeConfig{});
  p2p::NodeConfig config;
  config.address = first->address();
  p2p::Node second(p2p::NodeDeps::sim(sim, network, host), config);
  auto node_samples = [&] {
    std::size_t n = 0;
    for (const auto& s : sim.metrics().snapshot()) {
      if (s.labels.node == second.brief() && s.name.starts_with("node_")) ++n;
    }
    return n;
  };
  std::size_t both = node_samples();

  first.reset();
  std::size_t after = node_samples();
  EXPECT_GT(after, 0u);
  EXPECT_EQ(both, 2 * after);
}

/// Destroying a component must unregister its gauges: a snapshot taken
/// afterwards cannot touch freed state.
TEST(OverlayObservability, ComponentDestructionUnregistersGauges) {
  sim::Simulator sim(5);
  std::size_t sim_only = sim.metrics().size();
  {
    net::Network network(sim);
    std::size_t with_net = sim.metrics().size();
    EXPECT_GT(with_net, sim_only);
    auto site = network.add_site("s");
    auto& host = network.add_host(net::Ipv4Addr(128, 1, 0, 1),
                                  net::Network::kInternet, site, {});
    {
      p2p::Node node(p2p::NodeDeps::sim(sim, network, host), {});
      EXPECT_GT(sim.metrics().size(), with_net);
      (void)sim.metrics().to_json();  // all gauges evaluable while alive
    }
    EXPECT_EQ(sim.metrics().size(), with_net);
    (void)sim.metrics().to_json();  // ...and after the node is gone
  }
  EXPECT_EQ(sim.metrics().size(), sim_only);
}

}  // namespace
}  // namespace wow
