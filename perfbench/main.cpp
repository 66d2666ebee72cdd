// wowbench: the repository benchmark.  One workload per process:
//
//   wowbench --workload=sim_bulk|sim_flashcrowd|udp_loopback
//            [--seed=1] [--seconds=30] [--trace=0|1]
//
// An untraced run (--trace=0) prints the end-to-end metrics; a traced
// run (--trace=1) repeats the workload untraced and then through the
// span-recording seam wrappers, checks the two executed the same
// simulated work, and prints the per-layer ledger.  Human-readable
// lines come first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
// Any failed check also makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.h"
#include "report.h"
#include "tools/tool_flags.h"

namespace wowbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace wowbench

namespace {

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wowbench;
  Options opt;
  std::string workload;
  wow::tools::FlagSet flags("wowbench", "");
  flags.on_value("workload", "name", "sim_bulk | sim_flashcrowd | udp_loopback",
                 [&](std::string_view v) {
                   workload = v;
                   return v == "sim_bulk" || v == "sim_flashcrowd" ||
                          v == "udp_loopback";
                 });
  flags.on_value("seed", "n",
                 "workload seed (default 1; claim checks also use 2)",
                 [&](std::string_view v) { return parse_number(v, opt.seed); });
  flags.on_value("seconds", "s",
                 "measured-phase budget of udp_loopback and "
                 "sim_flashcrowd (default 30)",
                 [&](std::string_view v) {
                   return parse_number(v, opt.seconds) && opt.seconds > 0;
                 });
  flags.on_value("trace", "0|1", "1 = traced run printing the layer ledger",
                 [&](std::string_view v) {
                   opt.trace = v == "1";
                   return v == "0" || v == "1";
                 });
  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, positional)) return flags.help_shown() ? 0 : 2;
  if (workload.empty() || !positional.empty()) {
    flags.print_usage(stderr);
    return 2;
  }

  Report report;
  report.set_trace(opt.trace);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
  if (workload == "sim_bulk") {
    run_sim_bulk(opt, report);
  } else if (workload == "sim_flashcrowd") {
    run_sim_flashcrowd(opt, report);
  } else {
    run_udp_loopback(opt, report);
  }

  for (const std::string& l : report.lines()) std::printf("%s\n", l.c_str());
  std::printf("  %-28s %.6g (%llu failed of %llu checked)\n", "fail_ratio",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const MetricSpec& m : report.list()) {
    std::printf("  %-28s %.6g %s\n", m.name, report.value(m.name), m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const MetricSpec& m : report.list()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                report.value(m.name), m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
