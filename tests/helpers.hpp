#pragma once

// Shared fixtures for the test-suite: deterministic random instance
// families spanning topology shapes (crossbar, sparse two-tier, hybrid,
// heterogeneous delays) and workload mixes.

#include <cstdint>

#include "net/builders.hpp"
#include "net/instance.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace rdcn::testing {

struct RandomInstanceSpec {
  std::uint64_t seed = 1;
  NodeIndex racks = 4;
  NodeIndex lasers = 2;
  NodeIndex photodetectors = 2;
  double density = 0.8;
  Delay max_edge_delay = 2;
  Delay attach_delay = 0;
  Delay fixed_link_delay = 0;  ///< 0 = pure reconfigurable
  std::size_t packets = 20;
  double arrival_rate = 3.0;
  PairSkew skew = PairSkew::Uniform;
  WeightDist weights = WeightDist::UniformInt;
  std::int64_t weight_max = 8;
};

inline Instance make_random_instance(const RandomInstanceSpec& spec) {
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 12345);
  TwoTierConfig config;
  config.racks = spec.racks;
  config.lasers_per_rack = spec.lasers;
  config.photodetectors_per_rack = spec.photodetectors;
  config.density = spec.density;
  config.max_edge_delay = spec.max_edge_delay;
  config.attach_delay = spec.attach_delay;
  config.fixed_link_delay = spec.fixed_link_delay;
  const Topology topology = build_two_tier(config, rng);

  WorkloadConfig workload;
  workload.num_packets = spec.packets;
  workload.arrival_rate = spec.arrival_rate;
  workload.skew = spec.skew;
  workload.weights = spec.weights;
  workload.weight_max = spec.weight_max;
  workload.seed = spec.seed;
  return generate_workload(topology, workload);
}

/// A seed-indexed family covering several shapes; used by TEST_P sweeps.
/// Seeds above 100 select larger, more congested shapes so the same
/// property suites also exercise deep queues and long horizons.
inline Instance make_varied_instance(std::uint64_t seed) {
  RandomInstanceSpec spec;
  spec.seed = seed;
  if (seed > 100) {
    spec.racks = 6 + static_cast<NodeIndex>(seed % 5);          // 6..10 racks
    spec.lasers = 2;
    spec.photodetectors = 2;
    spec.density = 0.4;
    spec.max_edge_delay = 1 + static_cast<Delay>(seed % 4);     // 1..4
    spec.attach_delay = (seed % 4 == 0) ? 2 : 0;
    spec.fixed_link_delay = (seed % 2 == 0) ? 12 : 0;
    spec.packets = 60 + (seed % 40);
    spec.arrival_rate = 6.0;
    spec.skew = static_cast<PairSkew>(seed % 5);
    spec.weights = WeightDist::UniformInt;
    spec.weight_max = 16;
    return make_random_instance(spec);
  }
  spec.racks = 3 + static_cast<NodeIndex>(seed % 3);            // 3..5 racks
  spec.lasers = 1 + static_cast<NodeIndex>(seed % 2);           // 1..2
  spec.photodetectors = 1 + static_cast<NodeIndex>((seed / 2) % 2);
  spec.density = (seed % 4 == 0) ? 0.5 : 1.0;
  spec.max_edge_delay = 1 + static_cast<Delay>(seed % 3);       // 1..3
  spec.attach_delay = (seed % 5 == 0) ? 1 : 0;
  spec.fixed_link_delay = (seed % 3 == 0) ? 6 : 0;              // hybrid mix
  spec.packets = 12 + (seed % 10);
  spec.skew = static_cast<PairSkew>(seed % 5);
  spec.weights = static_cast<WeightDist>(seed % 3 == 0 ? 0 : 1);  // unit / uniform-int
  return make_random_instance(spec);
}

/// The deep-queue instance: an 8-rack pod (delays 1-3) fed 12 packets per
/// step for 300 steps, two thirds of them on rack pair (0, 1) (four edges,
/// four chunks per step), so the pending set peaks in the thousands and
/// most chunks sit behind an edge head. Half the weights come from a
/// four-value set, so chunk-weight ties exercise the tie-breaks.
inline Instance deep_queue_instance() {
  TwoTierConfig net;
  net.racks = 8;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 1.0;
  net.max_edge_delay = 3;
  Rng rng(41);
  Topology topology = build_two_tier(net, rng);
  const NodeIndex racks = net.racks;
  Instance instance(std::move(topology), {});
  for (Time step = 1; step <= 300; ++step) {
    for (int k = 0; k < 12; ++k) {
      const Weight weight = k % 2 == 0 ? 1.0 + static_cast<double>(rng.next_below(4))
                                       : rng.next_double(0.5, 8.0);
      NodeIndex source = 0;
      NodeIndex destination = 1;
      if (k % 3 == 0) {
        const auto draw = [&rng](NodeIndex bound) {
          return static_cast<NodeIndex>(rng.next_below(static_cast<std::uint64_t>(bound)));
        };
        source = draw(racks);
        destination = (source + 1 + draw(racks - 1)) % racks;
      }
      instance.add_packet(step, weight, source, destination);
    }
  }
  return instance;
}

}  // namespace rdcn::testing
