// Hot-path contracts of the scheduling round loop (ISSUE 5):
//  * steady-state rounds perform ZERO heap allocations, for every registry
//    scheduler and both randomized schedulers, on shallow queues and at a
//    backlog of 10k+ chunks -- the Selection API hands
//    policies an engine-owned output scratch, and every policy keeps its
//    working buffers as grow-once members;
//  * Engine::active_endpoints builds a correct dense remap for both the
//    engine's own pending list and foreign candidate lists, including the
//    stale-rank ("sparse set") reuse across alternating lists.
//
// The binary overrides global operator new/delete with a counting
// passthrough; the drain phase of a streaming engine (no arrivals, pure
// scheduling rounds + retirement) must not bump the counter after a short
// warmup that grows the scratch buffers to their high-water sizes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "baseline/dispatchers.hpp"
#include "core/alg.hpp"
#include "core/randomized.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "sim/engine.hpp"
#include "traffic/source.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rdcn {
namespace {

/// A contended multi-chunk workload on a two-tier pod: every packet is
/// injected at step 1, so the drain that follows is a pure scheduling-round
/// loop (no dispatches) lasting tens of steps.
Topology hotpath_topology(std::uint64_t seed) {
  TwoTierConfig net;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.7;
  net.max_edge_delay = 3;
  Rng rng(seed);
  return build_two_tier(net, rng);
}

std::vector<Packet> burst_packets(const Topology& topology, std::size_t count,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = rng.next_double(0.5, 8.0);
    p.source = static_cast<NodeIndex>(rng.next_below(
        static_cast<std::uint64_t>(topology.num_sources())));
    p.destination = static_cast<NodeIndex>(rng.next_below(
        static_cast<std::uint64_t>(topology.num_destinations())));
    if (!topology.routable(p.source, p.destination)) continue;
    packets.push_back(p);
  }
  return packets;
}

/// Injects the burst, runs `warmup` drain steps (scratch buffers grow to
/// their high-water sizes here), then counts allocations over the rest of
/// the drain. Returns (drain steps measured, allocations seen).
std::pair<int, std::uint64_t> measure_drain_allocations(DispatchPolicy& dispatcher,
                                                        SchedulePolicy& scheduler,
                                                        const Topology& topology,
                                                        int warmup,
                                                        EngineOptions options = {}) {
  Engine engine(topology, dispatcher, scheduler, options, [](RetiredPacket&&) {});
  const std::vector<Packet> packets = burst_packets(topology, 160, 11);
  const Time arrival = 1;
  engine.begin_step(&arrival);
  for (const Packet& p : packets) engine.inject(p);
  engine.finish_step();
  for (int i = 0; i < warmup && engine.busy(); ++i) {
    engine.begin_step(nullptr);
    engine.finish_step();
  }
  const std::uint64_t before = g_allocation_count.load();
  int steps = 0;
  while (engine.busy()) {
    engine.begin_step(nullptr);
    engine.finish_step();
    ++steps;
  }
  return {steps, g_allocation_count.load() - before};
}

TEST(HotPathAllocations, RegistrySchedulersDrainWithoutAllocating) {
  const Topology topology = hotpath_topology(3);
  for (const std::string& name : policy_names()) {
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(topology);
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, *scheduler, topology, 3);
    EXPECT_GT(steps, 5) << name << ": drain too short to be meaningful";
    EXPECT_EQ(allocations, 0u) << name << ": steady-state rounds hit the heap";
  }
}

TEST(HotPathAllocations, ProbeOnDrainRemainsAllocationFree) {
  // ISSUE 7: the observability layer's per-round work is fixed-slot
  // counters, a fixed-depth span stack, and a pre-sized ring with
  // drop-oldest overwrite -- enabling it must not change the zero-heap
  // contract. Capacity 64 forces ring wraparound inside the measured
  // window, so the drop-oldest path itself is pinned allocation-free too.
  const Topology topology = hotpath_topology(3);
  const PolicyFactory policy = named_policy("alg");
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{64}}) {
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(topology);
    EngineOptions options;
    options.probe.enabled = true;
    options.probe.event_capacity = capacity;
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, *scheduler, topology, 3, options);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u)
        << "probe-on drain hit the heap (ring capacity " << capacity << ")";
  }
}

TEST(HotPathAllocations, BMatchingExtensionDrainsWithoutAllocating) {
  // endpoint_capacity > 1 exercises StableMatchingScheduler's stamped
  // in-place capacitated greedy (the b-matching extension path).
  const Topology topology = hotpath_topology(3);
  const PolicyFactory policy = named_policy("alg");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.endpoint_capacity = 2;
  const auto [steps, allocations] =
      measure_drain_allocations(*dispatcher, *scheduler, topology, 3, options);
  EXPECT_GT(steps, 5);
  EXPECT_EQ(allocations, 0u) << "b-matching path hit the heap";
}

TEST(HotPathAllocations, RandomizedSchedulersDrainWithoutAllocating) {
  const Topology topology = hotpath_topology(3);
  {
    PerturbedStableScheduler scheduler(0.3, 7);
    auto dispatcher = named_policy("alg").dispatcher();
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, scheduler, topology, 3);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u) << "PerturbedStableScheduler";
  }
  {
    RandomSerialDictatorScheduler scheduler(7);
    auto dispatcher = named_policy("alg").dispatcher();
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, scheduler, topology, 3);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u) << "RandomSerialDictatorScheduler";
  }
}

// ------------------------------------------------------ deep backlog --

/// Pending chunks across the reconfigurable layer (the index's counters).
std::int64_t pending_chunks(const Engine& engine) {
  std::int64_t chunks = 0;
  for (NodeIndex t = 0; t < engine.topology().num_transmitters(); ++t) {
    chunks += engine.impact_index().transmitter_chunks(t);
  }
  return chunks;
}

TEST(HotPathAllocations, DeepBacklogDrainsWithoutAllocating) {
  // Half of an 8000-packet burst on one rack pair of an 8-rack pod: the
  // backlog starts near 16k chunks, almost all of them behind an edge
  // head. The edge-head refresh, the per-edge heaps and (for random) the
  // incrementally kept full list must all run off the heap at this depth.
  TwoTierConfig net;
  net.racks = 8;
  net.max_edge_delay = 3;
  Rng topology_rng(5);
  const Topology topology = build_two_tier(net, topology_rng);
  Rng rng(12);
  std::vector<Packet> packets;
  while (packets.size() < 8000) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = rng.next_double(0.5, 8.0);
    p.source = 0;
    p.destination = 1;
    if (packets.size() % 2 == 1) {
      p.source = static_cast<NodeIndex>(rng.next_below(8));
      p.destination = static_cast<NodeIndex>((p.source + 1 + rng.next_below(7)) % 8);
    }
    packets.push_back(p);
  }
  for (const char* name : {"alg", "maxweight", "islip", "random"}) {
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(topology);
    Engine engine(topology, *dispatcher, *scheduler, {}, [](RetiredPacket&&) {});
    const Time arrival = 1;
    engine.begin_step(&arrival);
    for (const Packet& p : packets) engine.inject(p);
    engine.finish_step();
    for (int i = 0; i < 3; ++i) {
      engine.begin_step(nullptr);
      engine.finish_step();
    }
    const std::uint64_t before = g_allocation_count.load();
    for (int i = 0; i < 200; ++i) {
      engine.begin_step(nullptr);
      engine.finish_step();
    }
    EXPECT_EQ(g_allocation_count.load() - before, 0u)
        << name << ": deep drain hit the heap";
    // Every measured round ran at a backlog of at least 10k chunks.
    EXPECT_GE(pending_chunks(engine), 10000) << name;
  }
}

// ----------------------------------------------------- dispatch phase --

/// ISSUE 6: the dispatch phase itself -- impact_of through the incremental
/// index, JSQ through the integer counters -- must be allocation-free at
/// steady state. dispatch() is a pure reader, so after a warmup that grows
/// the dispatcher scratch and the index's treap pool to their high-water
/// sizes, probing decisions against a live engine (with drain steps
/// interleaved, so the probes also flush real deferred index maintenance)
/// must not touch the heap.
TEST(HotPathAllocations, DispatchDecisionsAllocateNothingAtSteadyState) {
  const Topology topology = hotpath_topology(3);
  ImpactDispatcher impact;
  JsqDispatcher jsq;
  StableMatchingScheduler scheduler;
  Engine engine(topology, impact, scheduler, {}, [](RetiredPacket&&) {});

  const std::vector<Packet> packets = burst_packets(topology, 160, 11);
  const Time arrival = 1;
  engine.begin_step(&arrival);
  for (const Packet& p : packets) engine.inject(p);
  engine.finish_step();

  // Probe packets only feed (weight, source, destination) to dispatch().
  const std::vector<Packet> probes = burst_packets(topology, 32, 23);

  // Warmup: grow dispatcher scratch + index pool to their high-water sizes
  // (every probe once, since candidate-list scratch grows exact-fit), then
  // let drain rounds queue deferred index events so the measured probes
  // exercise flush().
  for (int i = 0; i < 2; ++i) {
    for (const Packet& p : probes) {
      impact.dispatch(engine, p);
      jsq.dispatch(engine, p);
    }
    engine.begin_step(nullptr);
    engine.finish_step();
  }

  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t decisions = 0;
  for (int step = 0; step < 6 && engine.busy(); ++step) {
    engine.begin_step(nullptr);
    engine.finish_step();
    for (const Packet& p : probes) {
      const RouteDecision a = impact.dispatch(engine, p);
      const RouteDecision b = jsq.dispatch(engine, p);
      decisions += 2;
      ASSERT_TRUE(a.use_fixed || a.edge >= 0);
      ASSERT_TRUE(b.use_fixed || b.edge >= 0);
    }
  }
  EXPECT_GT(decisions, 100u) << "probe loop too short to be meaningful";
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state dispatch decisions hit the heap";
}

/// The streamed ALG run of rdcnbench's stream_shallow shape (8-rack pod,
/// rho 0.5, backlog near 3-11 chunks): almost every dispatch moves some
/// weight structure across the inline/treap boundary (0 <-> 1 <-> 2 keys,
/// and now and then a promotion to a treap and back). After a warm-up
/// that grows the pools to their high-water marks, whole steps --
/// dispatch, deferred index maintenance, rounds and retirement -- must not
/// touch the heap.
TEST(HotPathAllocations, ShallowAlgStreamAllocatesNothingAtSteadyState) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::TwoTier;
  spec.two_tier.racks = 8;
  spec.two_tier.lasers_per_rack = 2;
  spec.two_tier.photodetectors_per_rack = 2;
  spec.two_tier.density = 1.0;
  spec.two_tier.max_edge_delay = 1;
  const Topology topology = make_topology(spec, 1);
  TrafficConfig traffic;
  traffic.process = ArrivalProcess::Poisson;
  traffic.rho = 0.5;
  traffic.shape.skew = PairSkew::Uniform;
  traffic.shape.weights = WeightDist::UniformInt;
  traffic.shape.weight_max = 10;
  traffic.shape.seed = 1;
  const std::unique_ptr<TrafficSource> source = make_source(topology, traffic);
  // Drawn up front, so the measured loop runs the engine alone.
  std::vector<Packet> packets;
  packets.reserve(40000);
  while (packets.size() < 40000) packets.push_back(source->next().value());

  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Engine engine(topology, dispatcher, scheduler, {}, [](RetiredPacket&&) {});
  std::size_t next = 0;
  const auto step = [&] {
    engine.begin_step(&packets[next].arrival);
    while (next < packets.size() && packets[next].arrival == engine.now()) {
      engine.inject(packets[next++]);
    }
    engine.finish_step();
  };
  while (next < packets.size() / 2) step();

  const std::uint64_t before = g_allocation_count.load();
  std::size_t tree_steps = 0;
  std::size_t inline_only_steps = 0;
  while (next + 1 < packets.size()) {
    step();
    const ImpactIndex& index = engine.impact_index();
    if (index.weight_tree_nodes() > 0) {
      ++tree_steps;
    } else if (index.live_weight_keys() > 0) {
      ++inline_only_steps;
    }
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state shallow ALG steps hit the heap";
  // Both sides of the boundary were exercised in the measured window.
  EXPECT_GT(tree_steps, 0u);
  EXPECT_GT(inline_only_steps, 0u);
}

// ------------------------------------------------- active-endpoint remap --

Candidate candidate_on(const Topology& topology, EdgeIndex e, PacketIndex id) {
  Candidate c;
  c.packet = id;
  c.edge = e;
  c.transmitter = topology.edge(e).transmitter;
  c.receiver = topology.edge(e).receiver;
  c.chunk_weight = 1.0 + static_cast<double>(id % 5);
  c.arrival = 1;
  c.remaining = 1;
  return c;
}

/// The remap must list each endpoint exactly once, rank every candidate
/// endpoint into the list, and survive alternating rebuilds from different
/// foreign lists (the stale-rank reuse path).
TEST(ActiveEndpoints, ForeignListRebuildsSurviveStaleRanks) {
  const Topology topology = build_crossbar(6);
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Instance instance(topology, {});
  Engine engine(instance, dispatcher, scheduler, {});

  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Candidate> candidates;
    const std::size_t depth = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < depth; ++i) {
      const auto e = static_cast<EdgeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_edges())));
      candidates.push_back(candidate_on(topology, e, static_cast<PacketIndex>(i)));
    }
    const ActiveEndpoints& active = engine.active_endpoints(candidates);

    std::vector<NodeIndex> expect_t, expect_r;
    for (const Candidate& c : candidates) {
      if (std::find(expect_t.begin(), expect_t.end(), c.transmitter) == expect_t.end()) {
        expect_t.push_back(c.transmitter);
      }
      if (std::find(expect_r.begin(), expect_r.end(), c.receiver) == expect_r.end()) {
        expect_r.push_back(c.receiver);
      }
    }
    ASSERT_EQ(active.transmitters, expect_t) << "trial " << trial;
    ASSERT_EQ(active.receivers, expect_r) << "trial " << trial;
    for (const Candidate& c : candidates) {
      const auto t_rank = static_cast<std::size_t>(active.transmitter_rank(c.transmitter));
      const auto r_rank = static_cast<std::size_t>(active.receiver_rank(c.receiver));
      ASSERT_LT(t_rank, active.num_transmitters());
      ASSERT_LT(r_rank, active.num_receivers());
      EXPECT_EQ(active.transmitters[t_rank], c.transmitter);
      EXPECT_EQ(active.receivers[r_rank], c.receiver);
    }
  }
}

}  // namespace
}  // namespace rdcn
