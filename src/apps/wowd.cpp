// wowd: the WOW node as a real daemon.  The exact protocol stack the
// simulator exercises — p2p::Node, IPOP tunnelling, ICMP — assembled
// over the real-clock backend (RealtimeEventLoop + UdpEdgeFactory) and
// pointed at real peers.  Nothing in src/p2p, src/ipop or src/vtcp
// changes between "node number 73,412 of a megascale run" and "the
// daemon on this workstation"; this file is just the other composition
// root (DESIGN §17).
//
//   wowd --port=17001 --vip=10.128.0.1
//        --bootstrap=brunet.udp://10.0.0.1:17001
//        --status-sock=/tmp/wowd.sock           (one command line)
//
// A unix status socket answers one-line commands (status / peers /
// metrics / flight / ping <vip> / stop) with JSON — tools/wowctl is the
// matching client.  SIGINT/SIGTERM stop gracefully: close frames go
// out to every held peer before the process exits.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ipop/icmp_service.h"
#include "ipop/ipop_node.h"
#include "p2p/node.h"
#include "transport/realtime.h"
#include "transport/udp_edge.h"

#include "../../tools/tool_flags.h"

namespace wow {
namespace {

transport::RealtimeEventLoop* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->stop();  // async-signal-safe
}

struct Options {
  std::uint16_t port = 17001;
  net::Ipv4Addr ip{127, 0, 0, 1};     // advertised in our URIs
  net::Ipv4Addr vip{10, 128, 0, 1};   // virtual IP = ring identity
  std::vector<transport::Uri> bootstrap;
  std::string status_sock;            // empty = no status socket
  LogLevel log_level = LogLevel::kWarn;
  std::uint64_t seed = 0;             // 0 = derive from pid
  int maintenance_ms = 0;             // 0 = stack default
};

/// `--config=FILE`: one flag per line, without the leading dashes
/// (`port=17001`), '#' comments.  CLI flags override file entries
/// because the file's lines are parsed first.
[[nodiscard]] bool read_config_file(const std::string& path,
                                    std::vector<std::string>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "wowd: cannot read config %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::size_t a = line.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    std::size_t b = line.find_last_not_of(" \t\r");
    out.push_back("--" + line.substr(a, b - a + 1));
  }
  return true;
}

[[nodiscard]] bool parse_options(int argc, char** argv, Options& opt,
                                 bool& help) {
  tools::FlagSet flags("wowd", "");
  flags.value("port", opt.port, "UDP port to bind, 1-65535");
  flags.on_value("ip", "ADDR", "address advertised to peers",
                 [&](std::string_view v) {
                   auto ip = net::Ipv4Addr::parse(v);
                   if (!ip) return false;
                   opt.ip = *ip;
                   return true;
                 });
  flags.on_value("vip", "ADDR", "virtual IP (the ring identity)",
                 [&](std::string_view v) {
                   auto ip = net::Ipv4Addr::parse(v);
                   if (!ip) return false;
                   opt.vip = *ip;
                   return true;
                 });
  flags.on_value("bootstrap", "URI[,URI]",
                 "well-known peers (brunet.udp://ip:port)",
                 [&](std::string_view v) {
                   while (!v.empty()) {
                     std::size_t comma = v.find(',');
                     std::string_view one = v.substr(0, comma);
                     auto uri = transport::Uri::parse(one);
                     if (!uri) return false;
                     opt.bootstrap.push_back(*uri);
                     if (comma == std::string_view::npos) break;
                     v.remove_prefix(comma + 1);
                   }
                   return true;
                 });
  flags.value("status-sock", opt.status_sock,
              "unix socket for wowctl; empty for none");
  flags.on_value("log-level", "LVL", "trace|debug|info|warn|error",
                 [&](std::string_view v) {
                   if (v == "trace") opt.log_level = LogLevel::kTrace;
                   else if (v == "debug") opt.log_level = LogLevel::kDebug;
                   else if (v == "info") opt.log_level = LogLevel::kInfo;
                   else if (v == "warn") opt.log_level = LogLevel::kWarn;
                   else if (v == "error") opt.log_level = LogLevel::kError;
                   else return false;
                   return true;
                 });
  flags.value("seed", opt.seed, "RNG seed; 0 derives one from the pid");
  flags.on_value("maintenance-ms", "MS",
                 "overlord maintenance period (default: stack's)",
                 [&](std::string_view v) {
                   return tools::parse_value(v, opt.maintenance_ms) &&
                          opt.maintenance_ms > 0;
                 });
  flags.on_value("config", "FILE", "flag file, one name=value per line",
                 [&](std::string_view) { return true; });  // handled below

  // Pre-scan for --config so file entries come first (CLI overrides).
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.starts_with("--config=")) {
      if (!read_config_file(std::string(arg.substr(9)), args)) return false;
    }
  }
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  std::vector<char*> synth;
  synth.push_back(argv[0]);
  for (std::string& a : args) synth.push_back(a.data());
  bool ok = flags.parse(static_cast<int>(synth.size()), synth.data());
  help = flags.help_shown();
  if (ok && opt.port == 0) {
    std::fprintf(stderr, "wowd: --port must be 1-65535\n");
    return false;
  }
  return ok;
}

/// Longest control command accepted, newline excluded.  The longest real
/// command, `ping <vip>`, is under 32 B; a client that sends more is
/// answered with an error and dropped, so it cannot grow daemon memory.
constexpr std::size_t kMaxCommandBytes = 1024;

/// The daemon's control plane: a unix stream socket speaking one-line
/// commands with JSON replies.  Single-threaded like everything else —
/// clients are fds watched by the same loop that runs the overlay.
class StatusServer {
 public:
  StatusServer(transport::RealtimeEventLoop& loop, ipop::IpopNode& node,
               ipop::IcmpService& icmp,
               const transport::UdpEdgeFactory& udp,
               MetricsRegistry& metrics, const Options& opt)
      : loop_(loop), node_(node), icmp_(icmp), udp_(udp), metrics_(metrics),
        opt_(opt) {
    icmp_.set_reply_handler([this](net::Ipv4Addr from, std::uint16_t ident,
                                   std::uint16_t, SimDuration rtt) {
      on_icmp_reply(from, ident, rtt);
    });
  }

  ~StatusServer() { close_all(); }

  [[nodiscard]] bool listen(const std::string& path) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof sa.sun_path) return false;
    std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
    // Only a stale path is replaced.  If a daemon answers there (the
    // connect succeeds, or finds the backlog full), taking the path over
    // would cut that daemon off from wowctl.
    int probe = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    bool live = ::connect(probe, reinterpret_cast<sockaddr*>(&sa),
                          sizeof sa) == 0 ||
                errno == EAGAIN;
    ::close(probe);
    if (live) {
      std::fprintf(stderr, "wowd: %s is in use by a running daemon\n",
                   path.c_str());
      return false;
    }
    ::unlink(path.c_str());
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
    if (listen_fd_ < 0) return false;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      std::perror("wowd: status socket");
      return false;
    }
    path_ = path;
    loop_.watch_fd(listen_fd_, [this](std::uint32_t) { accept_clients(); });
    return true;
  }

  /// stop command seen: the main loop drains and exits.
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

 private:
  struct Client {
    std::string inbuf;
  };

  void accept_clients() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      clients_[fd] = Client{};
      loop_.watch_fd(fd, [this, fd](std::uint32_t) { on_readable(fd); });
    }
  }

  void on_readable(int fd) {
    char buf[512];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        std::string& inbuf = clients_[fd].inbuf;
        inbuf.append(buf, static_cast<std::size_t>(n));
        if (std::min(inbuf.find('\n'), inbuf.size()) > kMaxCommandBytes) {
          reply(fd, "{\"error\":\"command too long\"}");
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF: whatever arrived is the command, newline or not.  A client
      // with nothing left to run is dropped: its fd stays readable at
      // EOF, and kept in the loop it would spin it.
      if (n == 0 && !clients_[fd].inbuf.empty()) {
        if (clients_[fd].inbuf.find('\n') == std::string::npos) {
          clients_[fd].inbuf += '\n';
        }
        break;
      }
      drop_client(fd);
      return;
    }
    std::size_t nl = clients_[fd].inbuf.find('\n');
    if (nl == std::string::npos) return;
    std::string line = clients_[fd].inbuf.substr(0, nl);
    clients_[fd].inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    handle_command(fd, line);
  }

  void handle_command(int fd, const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "status") {
      reply(fd, status_json());
    } else if (cmd == "peers") {
      reply(fd, peers_json());
    } else if (cmd == "metrics") {
      reply(fd, metrics_.to_json());
    } else if (cmd == "flight") {
      std::string out = "{\"flight\":";
      append_escaped(out, node_.p2p().flight().dump(node_.p2p().brief()));
      out += '}';
      reply(fd, out);
    } else if (cmd == "ping") {
      std::string target;
      in >> target;
      auto vip = net::Ipv4Addr::parse(target);
      if (!vip) {
        reply(fd, "{\"error\":\"ping needs a virtual IP\"}");
        return;
      }
      start_ping(fd, *vip);
    } else if (cmd == "stop") {
      stop_requested_ = true;
      reply(fd, "{\"stopping\":true}");
      loop_.stop();
    } else {
      reply(fd, "{\"error\":\"unknown command\",\"commands\":"
                "[\"status\",\"peers\",\"metrics\",\"flight\","
                "\"ping <vip>\",\"stop\"]}");
    }
  }

  [[nodiscard]] std::string status_json() const {
    const p2p::Node& node = node_.p2p();
    auto counts = node.connections().count_by_type();
    const p2p::NodeStats& stats = node.stats();
    std::ostringstream out;
    out << "{\"vip\":\"" << node_.vip().to_string() << "\""
        << ",\"address\":\"" << node.address().to_hex() << "\""
        << ",\"port\":" << opt_.port
        << ",\"running\":" << (node.running() ? "true" : "false")
        << ",\"routable\":" << (node.routable() ? "true" : "false")
        << ",\"uptime_us\":" << loop_.now()
        << ",\"connections\":{\"near\":" << counts.near
        << ",\"far\":" << counts.far
        << ",\"shortcut\":" << counts.shortcut
        << ",\"leaf\":" << counts.leaf
        << ",\"relay\":" << counts.relay << "}"
        << ",\"data_sent\":" << stats.data_sent
        << ",\"data_delivered\":" << stats.data_delivered
        << ",\"data_forwarded\":" << stats.data_forwarded;
    const transport::UdpEdgeFactory::Stats& udp = udp_.stats();
    out << ",\"udp\":{\"datagrams_sent\":" << udp.datagrams_sent
        << ",\"datagrams_received\":" << udp.datagrams_received
        << ",\"send_batches\":" << udp.send_batches
        << ",\"recv_batches\":" << udp.recv_batches
        << ",\"send_errors\":" << udp.send_errors
        << ",\"icmp_errors\":" << udp.icmp_errors
        << ",\"dropped_oversize\":" << udp.dropped_oversize
        << ",\"dropped_backlog\":" << udp.dropped_backlog
        << ",\"coalesced_sends\":" << udp.coalesced_sends
        << ",\"coalesced_receives\":" << udp.coalesced_receives << "}}";
    return out.str();
  }

  [[nodiscard]] std::string peers_json() const {
    std::ostringstream out;
    out << "{\"self\":\"" << node_.p2p().address().to_hex()
        << "\",\"peers\":[";
    bool first = true;
    node_.p2p().connections().for_each([&](const p2p::Connection& c) {
      if (!first) out << ",";
      first = false;
      out << "{\"addr\":\"" << c.addr.to_hex() << "\""
          << ",\"type\":\"" << p2p::to_string(c.type) << "\""
          << ",\"endpoint\":\"" << c.remote.to_string() << "\""
          << ",\"srtt_us\":" << c.srtt << "}";
    });
    out << "]}";
    return out.str();
  }

  void start_ping(int fd, net::Ipv4Addr vip) {
    std::uint16_t ident = next_ident_++;
    SimTime started = loop_.now();
    pings_[ident] = PendingPing{fd, started};
    icmp_.ping(vip, ident, 1);
    // Expire unanswered probes so the client never hangs.
    loop_.schedule(2 * kSecond, [this, ident] {
      auto it = pings_.find(ident);
      if (it == pings_.end()) return;
      int client = it->second.fd;
      pings_.erase(it);
      reply(client, "{\"replied\":false}");
    });
  }

  void on_icmp_reply(net::Ipv4Addr from, std::uint16_t ident,
                     SimDuration rtt) {
    auto it = pings_.find(ident);
    if (it == pings_.end()) return;
    int fd = it->second.fd;
    pings_.erase(it);
    std::ostringstream out;
    out << "{\"replied\":true,\"from\":\"" << from.to_string()
        << "\",\"rtt_us\":" << rtt << "}";
    reply(fd, out.str());
  }

  void reply(int fd, const std::string& json) {
    if (clients_.find(fd) == clients_.end()) return;
    std::string out = json + "\n";
    // Status replies are small (well under a socket buffer); a short
    // write here means the client died — drop it either way.
    [[maybe_unused]] ssize_t n = ::write(fd, out.data(), out.size());
    drop_client(fd);
  }

  void drop_client(int fd) {
    if (clients_.erase(fd) == 0) return;
    loop_.unwatch_fd(fd);
    ::close(fd);
  }

  void close_all() {
    while (!clients_.empty()) drop_client(clients_.begin()->first);
    if (listen_fd_ >= 0) {
      loop_.unwatch_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  struct PendingPing {
    int fd = -1;
    SimTime started = 0;
  };

  transport::RealtimeEventLoop& loop_;
  ipop::IpopNode& node_;
  ipop::IcmpService& icmp_;
  const transport::UdpEdgeFactory& udp_;
  MetricsRegistry& metrics_;
  const Options& opt_;
  int listen_fd_ = -1;
  std::string path_;
  std::map<int, Client> clients_;
  std::map<std::uint16_t, PendingPing> pings_;
  std::uint16_t next_ident_ = 1;
  bool stop_requested_ = false;
};

int run(int argc, char** argv) {
  Options opt;
  bool help = false;
  if (!parse_options(argc, argv, opt, help)) return help ? 0 : 2;

  transport::RealtimeEventLoop loop;
  g_loop = &loop;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead wowctl clients must not kill us

  Rng rng(opt.seed != 0 ? opt.seed
                        : static_cast<std::uint64_t>(getpid()) * 2654435761u);
  Logger logger(opt.log_level);
  MetricsRegistry metrics;
  Tracer tracer;

  p2p::NodeDeps deps;
  deps.timers = &loop;
  deps.rng = &rng;
  deps.logger = &logger;
  deps.metrics = &metrics;
  deps.tracer = &tracer;
  deps.edges = std::make_unique<transport::UdpEdgeFactory>(loop, opt.ip);
  auto* factory = static_cast<transport::UdpEdgeFactory*>(deps.edges.get());
  factory->set_error_handler([&metrics](const net::Endpoint& remote,
                                        p2p::DisconnectCause cause, int err) {
    metrics.counter("udp.socket_error", MetricLabels{"", "wowd"}).inc();
    std::fprintf(stderr, "wowd: %s unreachable (%s, errno %d)\n",
                 remote.to_string().c_str(), p2p::to_string(cause), err);
  });

  ipop::IpopNode::Config config;
  config.vip = opt.vip;
  config.p2p.port = opt.port;
  config.p2p.bootstrap = opt.bootstrap;
  if (opt.maintenance_ms > 0) {
    config.p2p.maintenance_period = opt.maintenance_ms * kMillisecond;
  }

  ipop::IpopNode node(std::move(deps), config);
  ipop::IcmpService icmp(node);

  StatusServer status(loop, node, icmp, *factory, metrics, opt);
  if (!opt.status_sock.empty() && !status.listen(opt.status_sock)) {
    std::fprintf(stderr, "wowd: cannot listen on %s\n",
                 opt.status_sock.c_str());
    return 1;
  }

  node.start();
  if (!factory->is_open()) {
    std::fprintf(stderr, "wowd: cannot bind UDP port %u\n", opt.port);
    return 1;
  }
  std::fprintf(stderr, "wowd: vip %s addr %s port %u (%zu bootstrap)\n",
               opt.vip.to_string().c_str(),
               node.p2p().address().brief().c_str(), opt.port,
               opt.bootstrap.size());

  loop.run();  // until SIGINT/SIGTERM or a stop command

  // Graceful exit: close frames to every held peer, then a short drain
  // so the batched sends actually leave.
  std::fprintf(stderr, "wowd: stopping\n");
  node.stop_gracefully();
  loop.run_for(250 * kMillisecond);
  g_loop = nullptr;
  return 0;
}

}  // namespace
}  // namespace wow

int main(int argc, char** argv) { return wow::run(argc, argv); }
