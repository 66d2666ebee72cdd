// udp_loopback: two IPOP + vtcp nodes over real UdpEdgeFactory sockets
// on 127.0.0.1, driven by one RealtimeEventLoop on this thread.  A vtcp
// bulk transfer A->B (1400 B segments) runs beside an open-loop 64 B
// ICMP echo train B->A.  The only workload with real syscalls, batching
// and timers; traffic crosses the loopback interface, not a real link.
#include <memory>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "fleet.h"
#include "ipop/icmp_service.h"
#include "ipop/ipop_node.h"
#include "pattern.h"
#include "transport/realtime.h"
#include "transport/udp_edge.h"
#include "vtcp/tcp.h"

namespace wowbench {
namespace {

using wow::SimDuration;
using wow::kMillisecond;
using wow::kSecond;
using wow::transport::UdpEdgeFactory;

const wow::net::Ipv4Addr kLocalhost(127, 0, 0, 1);
constexpr std::uint64_t kTransferBytes = 64u << 20;
constexpr std::uint16_t kPort = 5001;
/// vtcp receive window.  Far below the 208 KiB default UDP socket
/// buffer, so a window-sized burst never overflows it: above ~128 KiB
/// loopback drops datagrams, vtcp stalls in retransmission timeouts and
/// echo requests are lost.
constexpr std::size_t kRecvWindow = 48u << 10;
constexpr double kPingsPerSecond = 200;
constexpr std::uint16_t kPingPadding = 56;  // 64 B ICMP message, as `ping`
/// Set-ups per untraced run, each with its own seed: the first
/// maintenance tick, which sends the bootstrap probe, is jittered by the
/// node's rng over the 10 ms period, so one seed's set-up time is mostly
/// its jitter.
constexpr int kSetups = 51;
constexpr int kMinReps = 3;
constexpr int kTraceReps = 2;
constexpr SimDuration kSlice = 1 * kMillisecond;
constexpr SimDuration kLinkCap = 10 * kSecond;
constexpr SimDuration kRepCap = 60 * kSecond;
constexpr SimDuration kPingGrace = 1 * kSecond;

[[nodiscard]] std::int64_t now_us() { return now_ns() / 1000; }

/// Two linked IPOP nodes, A (bulk source, echo responder) and B (bulk
/// sink, echo generator), plus the open-loop ping train.
class UdpPair {
 public:
  UdpPair(std::uint64_t seed, Ledger* ledger, Report& report)
      : ledger_(ledger), rng_(seed), pattern_(seed) {
    offset_us_ = now_us() - loop_.now();
    if (ledger != nullptr) {
      node_timers_ = std::make_unique<TracedTimers>(loop_, *ledger,
                                                    Span::kP2pTimer);
      vtcp_timers_ = std::make_unique<TracedTimers>(loop_, *ledger,
                                                    Span::kVtcpTimer);
      node_timers_->record_lateness(offset_us_);
      vtcp_timers_->record_lateness(offset_us_);
      // Runs before the factories' own flushers (registered at bind):
      // the sendmmsg batches leave inside a span.
      loop_.add_flusher([this] {
        ledger_->begin();
        udp_a_->flush();
        udp_b_->flush();
        ledger_->end(Span::kTransportSend);
      });
    }
    a_ = make_node(wow::net::Ipv4Addr(10, 0, 0, 1), {}, &udp_a_);
    a_->start();
    wow::transport::Uri a_uri{wow::transport::TransportKind::kUdp,
                              wow::net::Endpoint{kLocalhost,
                                                 udp_a_->local_uri()
                                                     .endpoint.port}};
    b_ = make_node(wow::net::Ipv4Addr(10, 0, 0, 2), {a_uri}, &udp_b_);
    b_->start();

    wow::sim::TimerService& timers =
        vtcp_timers_ ? static_cast<wow::sim::TimerService&>(*vtcp_timers_)
                     : loop_;
    wow::vtcp::TcpConfig tcp;
    tcp.mss = 1400;
    tcp.recv_window = kRecvWindow;
    tcp_a_ = std::make_unique<wow::vtcp::TcpStack>(timers, *a_, tcp);
    tcp_b_ = std::make_unique<wow::vtcp::TcpStack>(timers, *b_, tcp);
    source_ = std::make_unique<PatternSource>(*tcp_a_, kPort, pattern_,
                                              kTransferBytes, ledger);
    sink_ = std::make_unique<PatternSink>(*tcp_b_, pattern_, ledger);
    icmp_a_ = std::make_unique<wow::ipop::IcmpService>(*a_);
    icmp_b_ = std::make_unique<wow::ipop::IcmpService>(*b_);
    icmp_b_->set_reply_handler([this](wow::net::Ipv4Addr, std::uint16_t,
                                      std::uint16_t seq, SimDuration) {
      timed(ledger_, Span::kApp, [&] { on_reply(seq); });
    });

    bool linked = drive_until([this] {
      return a_->p2p().has_direct(b_->p2p().address()) &&
             b_->p2p().has_direct(a_->p2p().address());
    }, kLinkCap);
    report.check(linked, "UDP node pair did not link");
  }

  /// One bulk transfer A->B to completion, with the open-loop echo train
  /// running beside it: ping k of the transfer is due at its start +
  /// k/rate whether or not earlier pings were answered.  Returns the
  /// transfer's wall time.
  double transfer(Report& report) {
    period_us_ = static_cast<std::int64_t>(1e6 / kPingsPerSecond);
    next_due_us_ = now_us();
    pinging_ = true;
    generate();
    std::int64_t t0 = now_ns();
    sink_->fetch(a_->vip(), kPort, kTransferBytes);
    drive_until([this] { return sink_->done(); }, kRepCap);
    double wall = static_cast<double>(now_ns() - t0) / 1e9;
    pinging_ = false;
    loop_.cancel(gen_timer_);
    report.check(sink_->ok(), "bulk transfer incomplete or corrupt");
    if (sink_->ok()) bytes_ += sink_->received();
    return wall;
  }

  /// Wait out the grace period for late echo replies and count every
  /// unanswered ping as failed.
  void check_pings(Report& report) {
    drive_until([this] { return replies_ == due_us_.size(); }, kPingGrace);
    for (std::size_t i = 0; i < due_us_.size(); ++i) {
      report.check(rtt_us_[i] >= 0, fmt("ping %zu unanswered", i));
    }
  }

  [[nodiscard]] std::vector<double> rtts_us() const {
    std::vector<double> out;
    for (double r : rtt_us_) {
      if (r >= 0) out.push_back(r);
    }
    return out;
  }
  [[nodiscard]] const std::vector<double>& gen_late_us() const {
    return gen_late_us_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] const UdpEdgeFactory::Stats& udp_a() const {
    return udp_a_->stats();
  }
  [[nodiscard]] const UdpEdgeFactory::Stats& udp_b() const {
    return udp_b_->stats();
  }
  [[nodiscard]] NodeCounters counters() const {
    return sum_counters({&a_->p2p(), &b_->p2p()}, {a_.get(), b_.get()});
  }
  [[nodiscard]] wow::vtcp::TcpSocket::Stats tcp_stats() const {
    return source_->stats();
  }

 private:
  std::unique_ptr<wow::ipop::IpopNode> make_node(
      wow::net::Ipv4Addr vip, std::vector<wow::transport::Uri> bootstrap,
      UdpEdgeFactory** udp) {
    auto factory = std::make_unique<UdpEdgeFactory>(loop_, kLocalhost);
    *udp = factory.get();
    wow::p2p::NodeDeps deps;
    deps.rng = &rng_;
    deps.logger = &logger_;
    deps.metrics = &metrics_;
    deps.tracer = &tracer_;
    TracedEdges* traced = nullptr;
    if (ledger_ == nullptr) {
      deps.timers = &loop_;
      deps.edges = std::move(factory);
    } else {
      deps.timers = node_timers_.get();
      auto edges = std::make_unique<TracedEdges>(std::move(factory), *ledger_,
                                                 Span::kTransportSend);
      traced = edges.get();
      deps.edges = std::move(edges);
    }
    wow::ipop::IpopNode::Config config;
    config.vip = vip;
    config.p2p.port = 0;  // ephemeral
    // Fast maintenance: the first bootstrap probe leaves within
    // milliseconds instead of the default 2 s, so set-up time is the
    // stack's, not a timer's.
    config.p2p.maintenance_period = 10 * kMillisecond;
    config.p2p.bootstrap = std::move(bootstrap);
    auto node = std::make_unique<wow::ipop::IpopNode>(std::move(deps), config);
    if (traced != nullptr) traced->attach(node->p2p());
    return node;
  }

  template <typename Pred>
  bool drive_until(Pred done, SimDuration cap) {
    wow::SimTime deadline = loop_.now() + cap;
    while (!done() && loop_.now() < deadline) loop_.run_for(kSlice);
    return done();
  }

  void generate() {
    if (!pinging_) return;
    std::int64_t now = now_us();
    while (next_due_us_ <= now) {
      auto seq = static_cast<std::uint16_t>(due_us_.size());
      due_us_.push_back(next_due_us_);
      rtt_us_.push_back(-1);
      gen_late_us_.push_back(static_cast<double>(now - next_due_us_));
      timed(ledger_, Span::kIpopPing, [&] {
        icmp_b_->ping(a_->vip(), 7, seq, kPingPadding);
      });
      next_due_us_ += period_us_;
    }
    // Loop time of the next due instant (now() is frozen while
    // dispatching, so schedule against the absolute deadline).
    gen_timer_ = loop_.schedule(next_due_us_ - offset_us_ - loop_.now(),
                                [this] { generate(); });
  }

  void on_reply(std::uint16_t seq) {
    // The train is short enough that seq never wraps.
    if (seq >= rtt_us_.size() || rtt_us_[seq] >= 0) return;
    rtt_us_[seq] = static_cast<double>(now_us() - due_us_[seq]);
    ++replies_;
  }

  Ledger* ledger_;
  wow::transport::RealtimeEventLoop loop_;
  wow::Rng rng_;
  wow::Logger logger_;
  wow::MetricsRegistry metrics_;
  wow::Tracer tracer_;
  Pattern pattern_;
  std::int64_t offset_us_ = 0;  // now_us() - loop_.now()
  std::unique_ptr<TracedTimers> node_timers_;
  std::unique_ptr<TracedTimers> vtcp_timers_;
  UdpEdgeFactory* udp_a_ = nullptr;
  UdpEdgeFactory* udp_b_ = nullptr;
  std::unique_ptr<wow::ipop::IpopNode> a_;
  std::unique_ptr<wow::ipop::IpopNode> b_;
  std::unique_ptr<wow::vtcp::TcpStack> tcp_a_;
  std::unique_ptr<wow::vtcp::TcpStack> tcp_b_;
  std::unique_ptr<PatternSource> source_;
  std::unique_ptr<PatternSink> sink_;
  std::unique_ptr<wow::ipop::IcmpService> icmp_a_;
  std::unique_ptr<wow::ipop::IcmpService> icmp_b_;
  std::uint64_t bytes_ = 0;

  bool pinging_ = false;
  std::int64_t period_us_ = 0;
  std::int64_t next_due_us_ = 0;
  wow::sim::TimerHandle gen_timer_;
  std::vector<std::int64_t> due_us_;
  std::vector<double> rtt_us_;  // -1 = unanswered
  std::vector<double> gen_late_us_;
  std::size_t replies_ = 0;
};

struct PhaseResult {
  std::vector<double> walls;
  double wall_total = 0;
};

/// The measured phase: `reps` transfers (or as many as fit in
/// `seconds`, at least kMinReps).
PhaseResult measure(UdpPair& pair, Report& report, int reps, double seconds) {
  PhaseResult r;
  std::int64_t budget_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (reps > 0 ? static_cast<int>(r.walls.size()) < reps
                  : r.walls.size() < kMinReps || now_ns() < budget_end) {
    r.walls.push_back(pair.transfer(report));
    r.wall_total += r.walls.back();
  }
  pair.check_pings(report);
  return r;
}

}  // namespace

void run_udp_loopback(const Options& opt, Report& report) {
  report.line(fmt("udp_loopback: 2 IPOP+vtcp nodes on 127.0.0.1 over real "
                  "UDP, one event-loop thread; %llu B vtcp transfers A->B, "
                  "each beside an open-loop %g/s 64 B ICMP echo train B->A",
                  static_cast<unsigned long long>(kTransferBytes),
                  kPingsPerSecond));
  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<UdpPair> pair;
    for (int s = 0; s < kSetups; ++s) {
      pair.reset();
      std::int64_t t0 = now_ns();
      pair = std::make_unique<UdpPair>(
          opt.seed * 1000 + static_cast<std::uint64_t>(s), nullptr, report);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    PhaseResult phase = measure(*pair, report, 0, opt.seconds);
    std::vector<double> rtts = pair->rtts_us();
    report.set("setup_s", median(setups));
    // Every transfer moves the same bytes, so a transfer costs its user
    // the phase's wall time over the transfer count.  Unlike the median
    // it moves with every slow transfer, such as one stalled in
    // retransmission timeouts.
    auto reps = static_cast<double>(phase.walls.size());
    report.set("wall_s", phase.wall_total / reps);
    report.set("rss_mb", peak_rss_mb());
    report.line(fmt("  setups %d, reps %zu", kSetups, phase.walls.size()));
    report.line(fmt("  wall_s_p50                   %.6g s", median(phase.walls)));
    report.line(fmt("  wall_s_p90                   %.6g s (%zu transfers)",
                    percentile(phase.walls, 90), phase.walls.size()));
    report.line(fmt("  goodput_mb_per_s             %.6g MB/s",
                    static_cast<double>(pair->bytes()) / 1e6 /
                        phase.wall_total));
    report.line(fmt("  rtt_p50_us                   %.6g us", median(rtts)));
    report.line(fmt("  rtt_p99_us                   %.6g us (%zu samples at "
                    "%g pings/s offered, timed from each ping's due time; "
                    "generator lateness p99 %.6g us)",
                    percentile(rtts, 99), rtts.size(), kPingsPerSecond,
                    percentile(pair->gen_late_us(), 99)));
  } else {
    PhaseResult plain_phase;
    UdpEdgeFactory::Stats pa;
    UdpEdgeFactory::Stats pb;
    std::vector<double> plain_gen_late;
    std::uint64_t plain_bytes = 0;
    {
      UdpPair plain(opt.seed, nullptr, report);
      plain_phase = measure(plain, report, kTraceReps, 0);
      pa = plain.udp_a();
      pb = plain.udp_b();
      plain_gen_late = plain.gen_late_us();
      plain_bytes = plain.bytes();
    }
    Ledger ledger;
    UdpPair pair(opt.seed, &ledger, report);
    NodeCounters c0 = pair.counters();
    auto a0 = pair.udp_a();
    auto b0 = pair.udp_b();
    ledger.reset();
    PhaseResult phase = measure(pair, report, kTraceReps, 0);
    report.check(pair.bytes() == plain_bytes,
                 "traced run delivered a different number of bytes");

    auto sent = static_cast<double>(pa.datagrams_sent + pb.datagrams_sent);
    auto recv = static_cast<double>(pa.datagrams_received +
                                    pb.datagrams_received);
    report.set("transport.tx_batch_fill",
               sent / static_cast<double>(pa.send_batches + pb.send_batches));
    report.set("transport.rx_batch_fill",
               recv / static_cast<double>(pa.recv_batches + pb.recv_batches));
    report.set("transport.datagrams_per_s", sent / plain_phase.wall_total);
    report.set("transport.backlog_drops",
               static_cast<double>(pa.dropped_backlog + pb.dropped_backlog));
    report.set("transport.oversize_drops",
               static_cast<double>(pa.dropped_oversize + pb.dropped_oversize));
    report.set("transport.icmp_errors",
               static_cast<double>(pa.icmp_errors + pb.icmp_errors));
    report.set("transport.gen_late_us_p99", percentile(plain_gen_late, 99));
    report.set("transport.timer_late_us_p50",
               percentile(ledger.timer_late_us, 50));
    report.set("transport.timer_late_us_p99",
               percentile(ledger.timer_late_us, 99));

    report_spans(report, ledger);
    auto traced_sent = static_cast<double>(
        pair.udp_a().datagrams_sent + pair.udp_b().datagrams_sent -
        a0.datagrams_sent - b0.datagrams_sent);
    report.set("transport.send_ns",
               static_cast<double>(ledger[Span::kTransportSend].self_ns) /
                   traced_sent);
    report_codec(report, ledger, opt.seed);
    report_counters(report, pair.counters() - c0);
    report_vtcp(report, pair.tcp_stats());
    report.set("trace.overhead", phase.wall_total / plain_phase.wall_total);
  }
}

}  // namespace wowbench
