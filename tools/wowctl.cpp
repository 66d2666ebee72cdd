// wowctl: control client for a running wowd daemon.  Sends one command
// line over the daemon's unix status socket and prints the JSON reply.
//
//   wowctl --sock=/tmp/wowd.sock status
//   wowctl --sock=/tmp/wowd.sock metrics prom   (Prometheus text)
//   wowctl --sock=/tmp/wowd.sock peers
//   wowctl --sock=/tmp/wowd.sock ping 10.128.0.2
//   wowctl --sock=/tmp/wowd.sock stop

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tool_flags.h"

namespace {

int run_command(const std::string& path, const std::string& command) {
  int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::perror("wowctl: socket");
    return 1;
  }
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof sa.sun_path) {
    std::fprintf(stderr, "wowctl: socket path too long\n");
    ::close(fd);
    return 1;
  }
  std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    std::fprintf(stderr, "wowctl: cannot connect to %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }

  std::string line = command + "\n";
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    std::perror("wowctl: write");
    ::close(fd);
    return 1;
  }

  std::string reply;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  if (reply.empty()) {
    std::fprintf(stderr, "wowctl: no reply (daemon gone?)\n");
    return 1;
  }
  std::fputs(reply.c_str(), stdout);
  if (reply.back() != '\n') std::fputc('\n', stdout);
  // Surface daemon-side errors in the exit code for scripts.
  return reply.find("\"error\"") == std::string::npos ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sock = "/tmp/wowd.sock";
  wow::tools::FlagSet flags(
      "wowctl", "status|peers|metrics [prom]|flight|ping <vip>|stop");
  flags.value("sock", sock, "daemon status socket");
  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, positional)) return flags.help_shown() ? 0 : 2;
  if (positional.empty()) {
    flags.print_usage(stderr);
    return 2;
  }
  std::string command;
  for (const std::string& word : positional) {
    if (!command.empty()) command += ' ';
    command += word;
  }
  return run_command(sock, command);
}
