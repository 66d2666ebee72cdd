// Figure 8 + §V-D.1 reproduction: distribution of PBS/MEME job
// wall-clock times on the 33-node WOW, with self-organizing shortcuts
// enabled vs disabled, plus overall job throughput.
//
// Paper: enabled  — mean 24.1 s, stdev 6.5, throughput 53 jobs/min
//                   (4000 jobs in 4565 s);
//        disabled — mean 32.2 s, stdev 9.7, throughput 22 jobs/min.
//
// Jobs: ~20 s of unit-speed compute (MEME motif search) plus NFS-staged
// input/output from the head node, submitted at 1 job/s.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "middleware/nfs.h"
#include "middleware/pbs.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

void run_config(bool shortcuts, std::uint64_t seed, int jobs) {
  TestbedConfig config;
  config.seed = seed;
  config.shortcuts_enabled = shortcuts;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  auto& head = bed.node(2);
  mw::NfsServer nfs(sim, *head.tcp);
  mw::PbsServer pbs(sim, *head.tcp, nfs);

  std::vector<std::unique_ptr<mw::PbsWorker>> workers;
  for (auto& n : bed.nodes()) {
    workers.push_back(std::make_unique<mw::PbsWorker>(
        sim, *n.tcp, *n.cpu, head.vip(), n.name));
    workers.back()->start();
  }
  // Let worker registrations and the slowest (UFL-UFL) ring links
  // finish before the job stream starts.
  sim.run_for(5 * kMinute);

  // MEME sequential runs: ~30 s on the reference node including I/O
  // (paper's average single-job time was 24.1 s with shortcuts).
  for (int j = 0; j < jobs; ++j) {
    sim.schedule(static_cast<SimDuration>(j) * kSecond, [&pbs, &sim, j] {
      mw::JobSpec spec;
      spec.id = static_cast<std::uint64_t>(j);
      spec.work_seconds = 19.0 + sim.rng().uniform_real(-1.5, 1.5);
      spec.input_bytes = 1200 * 1024;
      spec.output_bytes = 400 * 1024;
      pbs.qsub(spec);
    });
  }

  SimTime deadline = sim.now() + 10ll * 60 * kMinute;
  while (pbs.completed().size() < static_cast<std::size_t>(jobs) &&
         sim.now() < deadline) {
    sim.run_for(kMinute);
  }

  RunningStats wall;
  Histogram hist(8.0, 96.0, 11);
  for (const auto& record : pbs.completed()) {
    wall.add(record.wall_seconds());
    hist.add(record.wall_seconds());
  }

  std::printf("--- shortcuts %s ---\n", shortcuts ? "enabled" : "disabled");
  std::printf("completed %zu/%d jobs; registered workers %zu\n",
              pbs.completed().size(), jobs, pbs.registered_workers());
  std::printf("wall-clock time: mean %.1f s, stdev %.1f s\n", wall.mean(),
              wall.stdev());
  std::printf("throughput: %.1f jobs/minute\n",
              pbs.throughput_jobs_per_minute());
  std::printf("histogram (s):\n%s\n", hist.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1000;
  std::uint64_t seed = 31;
  wow::tools::FlagSet flags("fig8_meme", "");
  flags.value("jobs", jobs, "jobs per configuration; the paper ran 4000");
  flags.value("seed", seed, "testbed seed of the shortcuts-on run");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  std::printf("== Figure 8: PBS/MEME wall-clock distribution and "
              "throughput ==\n");
  std::printf("%d jobs at 1 job/s over 33 workers\n\n", jobs);
  run_config(/*shortcuts=*/true, seed, jobs);
  run_config(/*shortcuts=*/false, seed + 1, jobs);
  std::printf("paper: enabled mean 24.1 s stdev 6.5, 53 jobs/min; "
              "disabled mean 32.2 s stdev 9.7, 22 jobs/min\n");
  return 0;
}
