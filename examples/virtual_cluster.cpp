// Virtual cluster: the paper's motivating scenario — a community pools
// firewalled machines from several institutions into what looks and
// schedules like one private-network cluster (§I, §III).
//
// Builds the full Figure-1 testbed (118 PlanetLab routers + 33 VMs in
// six NATed domains), runs a PBS head node with an NFS file server on
// node002, registers every node as a worker, and pushes a stream of
// MEME-like batch jobs through it.
//
// Build & run:  ./build/examples/virtual_cluster

#include <cstdio>
#include <memory>
#include <vector>

#include "middleware/nfs.h"
#include "middleware/pbs.h"
#include "wow/testbed.h"

using namespace wow;

int main() {
  TestbedConfig config;
  config.seed = 99;
  Testbed bed(config);
  sim::Simulator& sim = bed.simulator();

  std::printf("booting the Figure-1 testbed (118 routers, 33 VMs)...\n");
  bed.start_all();
  sim.run_for(6 * kMinute);
  std::printf("  %d/33 compute nodes fully routable\n",
              bed.routable_compute_nodes());

  // node002 plays head node: PBS server + NFS home directories.
  auto& head = bed.node(2);
  mw::NfsServer nfs(sim, *head.tcp);
  mw::PbsServer pbs(sim, *head.tcp, nfs);

  std::vector<std::unique_ptr<mw::PbsWorker>> workers;
  for (auto& n : bed.nodes()) {
    workers.push_back(std::make_unique<mw::PbsWorker>(
        sim, *n.tcp, *n.cpu, head.vip(), n.name));
    workers.back()->start();
  }
  sim.run_for(3 * kMinute);
  std::printf("  %zu workers registered with the PBS head node\n\n",
              pbs.registered_workers());

  // qsub a burst of 200 jobs: ~20 s of compute plus NFS-staged files.
  for (int j = 0; j < 200; ++j) {
    sim.schedule(static_cast<SimDuration>(j) * kSecond, [&pbs, &sim, j] {
      mw::JobSpec spec;
      spec.id = static_cast<std::uint64_t>(j);
      spec.work_seconds = 19.0 + sim.rng().uniform_real(-1.5, 1.5);
      spec.input_bytes = 600 * 1024;
      spec.output_bytes = 250 * 1024;
      pbs.qsub(spec);
    });
  }

  SimTime deadline = sim.now() + 60 * kMinute;
  while (pbs.completed().size() < 200 && sim.now() < deadline) {
    sim.run_for(kMinute);
  }

  std::printf("completed %zu/200 jobs, throughput %.1f jobs/minute\n",
              pbs.completed().size(), pbs.throughput_jobs_per_minute());

  // Who did the work?  Slow nodes (ncgrid's P-III, the home desktop)
  // naturally take fewer jobs — the paper's Figure 8 discussion.
  std::printf("\njobs per node:\n");
  for (auto& n : bed.nodes()) {
    int count = 0;
    for (const auto& record : pbs.completed()) {
      if (record.worker == n.name) ++count;
    }
    std::printf("  %-8s (speed %.2f): %3d jobs\n", n.name.c_str(),
                n.cpu_speed, count);
  }
  return 0;
}
