// Table III reproduction: fastDNAml-PVM execution times and parallel
// speedups on the WOW, sequential vs 15 vs 30 workers, with/without
// shortcuts.
//
// Paper (50-taxa dataset):
//   sequential node002 22272 s, node034 45191 s;
//   15 nodes (shortcuts)          2439 s  -> speedup  9.1;
//   30 nodes (shortcuts disabled) 2033 s  -> speedup 11.0;
//   30 nodes (shortcuts enabled)  1642 s  -> speedup 13.6.
//
// The workload is a round-synchronized master-worker task pool with the
// same total sequential work and comp/comm shape (§V-D.2).

#include <cstdio>
#include <memory>
#include <vector>

#include "middleware/pvm.h"
#include "tools/tool_flags.h"
#include "wow/testbed.h"

namespace {

using namespace wow;

mw::PvmWorkload workload_for(double task_seconds) {
  mw::PvmWorkload w;
  w.rounds = 47;
  w.tasks_per_round = 45;
  w.task_seconds = task_seconds;
  w.master_seconds = 8.0;
  w.task_msg_bytes = 100 * 1024;
  w.result_msg_bytes = 100 * 1024;
  return w;
}

/// Run the parallel workload on workers [first_worker, last_worker].
double run_parallel(bool shortcuts, std::uint64_t seed, int first_worker,
                    int last_worker, double task_seconds) {
  TestbedConfig config;
  config.seed = seed;
  config.shortcuts_enabled = shortcuts;

  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();
  bed.start_all();
  sim.run_for(8 * kMinute);

  auto& master_node = bed.node(2);
  mw::PvmMaster master(sim, *master_node.tcp, workload_for(task_seconds));

  std::vector<std::unique_ptr<mw::PvmWorker>> workers;
  for (int i = first_worker; i <= last_worker; ++i) {
    auto& n = bed.node(i);
    workers.push_back(std::make_unique<mw::PvmWorker>(
        sim, *n.tcp, *n.cpu, master_node.vip()));
    workers.back()->start();
  }

  double makespan = -1.0;
  master.run(last_worker - first_worker + 1,
             [&](double seconds) { makespan = seconds; });

  SimTime deadline = sim.now() + 40ll * 60 * kMinute;
  while (makespan < 0 && sim.now() < deadline) sim.run_for(kMinute);
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 37;
  double task_s = 10.35;
  wow::tools::FlagSet flags("table3_fastdnaml", "");
  flags.value("seed", seed, "testbed seed of the first row");
  flags.value("task_s", task_s, "unit-speed seconds per task");
  if (!flags.parse(argc, argv)) return flags.help_shown() ? 0 : 2;

  mw::PvmWorkload w = workload_for(task_s);
  double seq_node2 = w.sequential_seconds() / 1.0;
  double seq_node34 = w.sequential_seconds() / 0.49;

  std::printf("== Table III: fastDNAml-PVM execution times and "
              "speedups ==\n\n");
  std::printf("sequential node002: %8.0f s   (paper 22272)\n", seq_node2);
  std::printf("sequential node034: %8.0f s   (paper 45191)\n\n", seq_node34);

  struct Row {
    const char* label;
    bool shortcuts;
    int first, last;
    double paper_time, paper_speedup;
  };
  Row rows[] = {
      {"15 nodes, shortcuts enabled ", true, 3, 17, 2439, 9.1},
      {"30 nodes, shortcuts disabled", false, 3, 32, 2033, 11.0},
      {"30 nodes, shortcuts enabled ", true, 3, 32, 1642, 13.6},
  };
  for (const Row& row : rows) {
    double makespan =
        run_parallel(row.shortcuts, seed++, row.first, row.last, task_s);
    if (makespan < 0) {
      std::printf("%s: DID NOT COMPLETE\n", row.label);
      continue;
    }
    std::printf("%s: %6.0f s, speedup %5.1fx   (paper %.0f s, %.1fx)\n",
                row.label, makespan, seq_node2 / makespan, row.paper_time,
                row.paper_speedup);
  }
  return 0;
}
