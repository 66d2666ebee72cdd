// Parallel phylogenetics: a fastDNAml-style master/worker run (§V-D.2).
//
// The master keeps a pool of tree-evaluation tasks per round and
// dispatches them dynamically; every round ends with a barrier (pick
// the best tree) before the next opens.  Workers span all six
// administrative domains; none of the middleware knows NATs exist.
//
// Build & run:  ./build/examples/parallel_phylogenetics

#include <cstdio>
#include <memory>
#include <vector>

#include "middleware/pvm.h"
#include "wow/testbed.h"

using namespace wow;

int main() {
  TestbedConfig config;
  config.seed = 123;
  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();

  std::printf("booting testbed...\n");
  bed.start_all();
  sim.run_for(6 * kMinute);

  // A 12-round, 24-task toy dataset so the example finishes quickly;
  // bench/table3_fastdnaml runs the paper's full 50-taxa shape.
  mw::PvmWorkload workload;
  workload.rounds = 12;
  workload.tasks_per_round = 24;
  workload.task_seconds = 8.0;
  workload.master_seconds = 1.5;
  workload.task_msg_bytes = 60 * 1024;
  workload.result_msg_bytes = 60 * 1024;

  auto& master_node = bed.node(2);
  mw::PvmMaster master(sim, *master_node.tcp, workload);

  std::vector<std::unique_ptr<mw::PvmWorker>> workers;
  for (int i = 3; i <= 17; ++i) {  // 15 workers across UFL and NWU
    auto& n = bed.node(i);
    workers.push_back(std::make_unique<mw::PvmWorker>(
        sim, *n.tcp, *n.cpu, master_node.vip()));
    workers.back()->start();
  }

  double makespan = -1;
  master.run(15, [&](double seconds) { makespan = seconds; });

  SimTime deadline = sim.now() + 8ll * 60 * kMinute;
  while (makespan < 0 && sim.now() < deadline) {
    sim.run_for(30 * kSecond);
    if (master.completed_rounds() > 0 && makespan < 0) {
      static int last_reported = 0;
      if (master.completed_rounds() > last_reported) {
        last_reported = master.completed_rounds();
        std::printf("  round %d/%d done\n", master.completed_rounds(),
                    workload.rounds);
      }
    }
  }

  if (makespan < 0) {
    std::printf("run did not finish in time\n");
    return 1;
  }
  double sequential = workload.sequential_seconds();
  std::printf("\nparallel makespan: %.0f s on 15 workers\n", makespan);
  std::printf("sequential (reference node): %.0f s  ->  speedup %.1fx\n",
              sequential, sequential / makespan);
  std::printf("tasks dispatched: %llu\n",
              static_cast<unsigned long long>(master.tasks_dispatched()));
  return 0;
}
