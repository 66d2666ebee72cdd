// Microbenchmarks (google-benchmark) for the library's hot primitives:
// ring arithmetic, packet (de)serialization, the event queue, the NAT
// translation fast path, and end-to-end simulated-packet cost.  These
// bound how fast the testbed simulations run, not anything the paper
// measures.

#include <benchmark/benchmark.h>

#include "common/bytes.h"
#include "common/ring_id.h"
#include "common/rng.h"
#include "net/nat.h"
#include "net/network.h"
#include "p2p/connection_table.h"
#include "p2p/packet.h"
#include "sim/simulator.h"

namespace wow {
namespace {

void BM_RingIdDistance(benchmark::State& state) {
  Rng rng(1);
  RingId a = rng.ring_id();
  RingId b = rng.ring_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ring_distance(b));
  }
}
BENCHMARK(BM_RingIdDistance);

void BM_RingIdHex(benchmark::State& state) {
  Rng rng(2);
  RingId a = rng.ring_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RingId::from_hex(a.to_hex()));
  }
}
BENCHMARK(BM_RingIdHex);

void BM_RoutedPacketRoundTrip(benchmark::State& state) {
  Rng rng(3);
  p2p::RoutedPacket p;
  p.src = rng.ring_id();
  p.dst = rng.ring_id();
  p.set_payload(Bytes(static_cast<std::size_t>(state.range(0)), 0x5a));
  for (auto _ : state) {
    Bytes wire = p.serialize();
    benchmark::DoNotOptimize(p2p::RoutedPacket::parse(BytesView(wire)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RoutedPacketRoundTrip)->Arg(64)->Arg(1400);

void BM_RoutedPacketForwardHop(benchmark::State& state) {
  // One forwarding hop on the zero-copy path: parse the arriving frame
  // (payload stays a view into it), apply the in-flight header edits,
  // re-emit with wire().  Compare against BM_RoutedPacketRoundTrip,
  // which is what a hop cost before: full parse + full re-serialize.
  Rng rng(3);
  p2p::RoutedPacket p0;
  p0.src = rng.ring_id();
  p0.dst = rng.ring_id();
  p0.set_payload(Bytes(static_cast<std::size_t>(state.range(0)), 0x5a));
  SharedBytes frame{p0.serialize()};
  for (auto _ : state) {
    auto p = p2p::RoutedPacket::parse(std::move(frame));
    --p->ttl;
    ++p->hops;
    if (p->ttl == 0) {  // refresh so the loop never hits the floor
      p->ttl = 32;
      p->hops = 0;
    }
    frame = p->wire();
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RoutedPacketForwardHop)->Arg(64)->Arg(1400);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule(i % 97, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_SchedulerChurn(benchmark::State& state) {
  // The keepalive pattern that dominates a live overlay's queue: arm a
  // far-out timeout, cancel it, rearm.  Exercises O(1) cancel and the
  // tombstone compaction path; the timers never fire.
  sim::Simulator sim(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::TimerHandle> handles(n);
  for (auto& h : handles) h = sim.schedule(60 * kMinute, [] {});
  for (auto _ : state) {
    for (auto& h : handles) {
      sim.cancel(h);
      h = sim.schedule(60 * kMinute, [] {});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(1024);

/// A table of `size` random far connections around a random self.
p2p::ConnectionTable random_table(Rng& rng, std::int64_t size) {
  p2p::ConnectionTable table(rng.ring_id());
  for (std::int64_t i = 0; i < size; ++i) {
    p2p::Connection c;
    c.addr = rng.ring_id();
    c.type = p2p::ConnectionType::kStructuredFar;
    table.add(std::move(c));
  }
  return table;
}

void BM_ConnectionTableClosestTo(benchmark::State& state) {
  // One greedy routing decision.  8 entries is a steady-state node; a
  // well-known bootstrap endpoint holds hundreds to thousands.
  Rng rng(5);
  p2p::ConnectionTable table = random_table(rng, state.range(0));
  RingId target = rng.ring_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.closest_to(target));
  }
}
BENCHMARK(BM_ConnectionTableClosestTo)->Arg(8)->Arg(64)->Arg(256)->Arg(2000);

void BM_ConnectionTableSuccessorPredecessor(benchmark::State& state) {
  // Both neighbors of one ring position: how a nearest-delivery packet
  // finds the two sides of a ring gap.
  Rng rng(6);
  p2p::ConnectionTable table = random_table(rng, state.range(0));
  RingId pos = rng.ring_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.successor_of(pos));
    benchmark::DoNotOptimize(table.predecessor_of(pos));
  }
}
BENCHMARK(BM_ConnectionTableSuccessorPredecessor)->Arg(8)->Arg(2000);

void BM_ConnectionTableFind(benchmark::State& state) {
  // Looking up a held peer, as every link frame, keepalive and drop does.
  // The peer sits halfway round the ring order, where a linear scan
  // would read half the table.
  Rng rng(7);
  p2p::ConnectionTable table = random_table(rng, state.range(0));
  const p2p::Address held = table.nth(table.size() / 2).addr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(held));
  }
}
BENCHMARK(BM_ConnectionTableFind)->Arg(8)->Arg(2000);

void BM_NatTranslateOutbound(benchmark::State& state) {
  net::NatBox nat(net::Ipv4Addr(1, 2, 3, 4), {});
  net::Endpoint inside{net::Ipv4Addr(10, 0, 0, 1), 1000};
  net::Endpoint remote{net::Ipv4Addr(8, 8, 8, 8), 53};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nat.translate_outbound(inside, remote));
  }
}
BENCHMARK(BM_NatTranslateOutbound);

void BM_HostPortDispatch(benchmark::State& state) {
  // Regression guard for the single-port inline fast path: with one
  // binding (range 1, the overlay's case) the lookup must be a single
  // compare against the inline slot; extra bindings fall back to the
  // overflow scan.  The pre-megascale unordered_map paid a hash plus a
  // bucket chase for every delivered datagram.
  const net::Host::Config config;
  net::Host host(net::HostId{1}, net::Ipv4Addr(128, 0, 0, 1),
                 net::DomainId{0}, net::SiteId{0}, &config);
  int ports = static_cast<int>(state.range(0));
  std::uint64_t hits = 0;
  for (int p = 0; p < ports; ++p) {
    host.bind(static_cast<std::uint16_t>(17000 + p),
              [&hits](const net::Endpoint&, std::uint16_t, SharedBytes) {
                ++hits;
              });
  }
  std::uint16_t probe = 17000;  // primary slot holds the first binding
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.handler(probe));
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_HostPortDispatch)->Arg(1)->Arg(4);

void BM_SimulatedDatagramEndToEnd(benchmark::State& state) {
  sim::Simulator sim(7);
  net::Network network(sim);
  auto site = network.add_site("s");
  auto& a = network.add_host(net::Ipv4Addr(128, 0, 0, 1),
                             net::Network::kInternet, site, {});
  auto& b = network.add_host(net::Ipv4Addr(128, 0, 0, 2),
                             net::Network::kInternet, site, {});
  std::uint64_t received = 0;
  b.bind(9, [&received](const net::Endpoint&, std::uint16_t, SharedBytes) {
    ++received;
  });
  Bytes payload(256, 1);
  for (auto _ : state) {
    network.send(a, 8, net::Endpoint{b.ip(), 9}, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatedDatagramEndToEnd);

}  // namespace
}  // namespace wow

BENCHMARK_MAIN();
