#pragma once

// Topology/instance builders: the paper's worked examples (Figures 1 and 2)
// plus parameterized families used throughout tests and benchmarks.

#include <cstdint>
#include <vector>

#include "net/instance.hpp"
#include "util/rng.hpp"

namespace rdcn {

/// The exact instance of Figure 1: sources {s1, s2}, transmitters
/// {t1, t2, t3} (t1, t2 on s1; t3 on s2), receivers {r1..r4} on
/// destinations {d1, d2, d2, d3}, reconfigurable edges (t1,r1), (t1,r2),
/// (t3,r3), (t3,r4) all with delay 1, a fixed link (s2,d3) with delay 4,
/// and the five unit-weight packets of the table. The paper states the
/// table's schedule costs 9 and the optimum costs 7.
Instance figure1_instance();

/// Node/edge indices of the Figure-1 instance, for readable tests.
struct Figure1Ids {
  NodeIndex s1, s2;
  NodeIndex t1, t2, t3;
  NodeIndex r1, r2, r3, r4;
  NodeIndex d1, d2, d3;
  EdgeIndex t1r1, t1r2, t3r3, t3r4;
};
Figure1Ids figure1_ids();

/// The Figure-2 graph: sources {s1, s2} with one transmitter each,
/// destinations {d1, d2, d3} with one receiver each, edges
/// (t1,r1), (t1,r2), (t2,r2), (t2,r3), all delays 1, no fixed links.
Topology figure2_topology();

/// Figure 2's input Π: p1 (s1→d1, w=1), p2 (s1→d2, w=2), p3 (s2→d2, w=3),
/// all arriving at time 1 in that order. Expected realized impacts 1, 2, 5.
Instance figure2_instance_pi();

/// Figure 2's input Π′ = Π plus p4 (s2→d3, w=4). Expected impacts 1,3,3,7.
Instance figure2_instance_pi_prime();

/// Parameterized two-tier datacenter (ProjecToR-style): `racks` racks, each
/// both a source and a destination, with `lasers` transmitters and
/// `photodetectors` receivers per rack. Each (transmitter, receiver) pair
/// whose racks differ becomes a reconfigurable edge with probability
/// `density`; delays drawn uniformly from [1, max_edge_delay]. When
/// `fixed_link_delay > 0`, every ordered rack pair gets a fixed link of that
/// delay (the hybrid electrical network).
struct TwoTierConfig {
  NodeIndex racks = 8;
  NodeIndex lasers_per_rack = 2;
  NodeIndex photodetectors_per_rack = 2;
  double density = 1.0;          ///< probability an allowed edge exists
  Delay max_edge_delay = 1;      ///< d(e) ~ Uniform{1..max_edge_delay}
  Delay attach_delay = 0;        ///< delay of every attach edge
  Delay fixed_link_delay = 0;    ///< 0 = no hybrid layer
  bool allow_self_edges = false; ///< edges between a rack's own t and r

  bool operator==(const TwoTierConfig&) const = default;
};

/// Builds the topology; guarantees every ordered rack pair (i != j) is
/// routable (adds one deterministic edge when sampling left a pair empty
/// and no fixed layer exists).
Topology build_two_tier(const TwoTierConfig& config, Rng& rng);

/// Classic single-tier crossbar switch (the model of [20], [21] that the
/// paper generalizes): n input ports = n sources with one transmitter each,
/// n output ports = n destinations with one receiver each, full bipartite
/// reconfigurable layer with unit delays, no fixed links.
Topology build_crossbar(NodeIndex ports);

// --- topology zoo -----------------------------------------------------------
//
// Three further wiring families the paper's two-tier model admits. All are
// deterministic in (config, rng-seed): the same draws produce bit-identical
// edge lists, so fuzz seeds and suite files replay exactly.

/// Oversubscribed hybrid pod: two rack classes with asymmetric port counts
/// (the first `hot_racks` racks carry the hot class's lasers/photodetectors,
/// the rest the cold class's), reconfigurable edges drawn per port pair with
/// probability `density` from two delay classes (fast/slow), and a hybrid
/// fixed layer whose delay is the base electrical delay scaled by the
/// oversubscription factor. Every ordered rack pair is routable: via the
/// fixed layer when present, else via a deterministic patch edge.
struct OversubscribedConfig {
  NodeIndex racks = 8;
  NodeIndex hot_racks = 2;           ///< first hot_racks racks are "hot"
  NodeIndex hot_lasers = 4;
  NodeIndex hot_photodetectors = 2;  ///< asymmetry: more out- than in-ports
  NodeIndex cold_lasers = 1;
  NodeIndex cold_photodetectors = 1;
  double density = 0.7;              ///< probability a port pair is wired
  Delay fast_delay = 1;              ///< delay class drawn per edge:
  Delay slow_delay = 4;              ///< slow with probability slow_fraction
  double slow_fraction = 0.25;
  Delay attach_delay = 0;
  /// Fixed layer delay = max(1, round(fixed_base_delay * oversubscription));
  /// fixed_base_delay == 0 disables the hybrid layer entirely.
  Delay fixed_base_delay = 4;
  double oversubscription = 4.0;

  bool operator==(const OversubscribedConfig&) const = default;
};
Topology build_oversubscribed(const OversubscribedConfig& config, Rng& rng);

/// Expander-style sparse reconfigurable layer: the rack-level wiring is the
/// superposition of `degree` random fixed-point-free permutations of the
/// racks, so every rack has reconfigurable out- and in-degree exactly
/// `degree` (parallel rack pairs may repeat across permutations -- port
/// redundancy). Edges round-robin over each rack's lasers/photodetectors.
/// Routability guarantee: every ordered rack pair is routable iff
/// fixed_link_delay > 0 (the hybrid fallback); without it only the wired
/// pairs are routable (the workload samplers draw from routable pairs, so
/// sparse traffic concentrates on the expander edges -- by design).
struct ExpanderConfig {
  NodeIndex racks = 12;
  NodeIndex degree = 3;  ///< rack-level out/in degree; <= racks - 1
  NodeIndex lasers_per_rack = 2;
  NodeIndex photodetectors_per_rack = 2;
  Delay min_edge_delay = 1;  ///< d(e) ~ Uniform{min..max}
  Delay max_edge_delay = 2;
  Delay attach_delay = 0;
  Delay fixed_link_delay = 8;  ///< 0 = pure expander, no hybrid fallback

  bool operator==(const ExpanderConfig&) const = default;
};
Topology build_expander(const ExpanderConfig& config, Rng& rng);

/// RotorNet-style rotor topology: `num_matchings` round-robin rack-level
/// perfect matchings; matching m wires rack i to rack (i + m + 1) % racks on
/// laser/photodetector port (m % ports_per_rack). Fully deterministic (no
/// randomness). num_matchings == 0 selects racks - 1 matchings, which wires
/// every ordered rack pair exactly once (full coverage); fewer matchings
/// leave the remaining offsets unwired (routable only if fixed_link_delay
/// > 0). The registry's "rotor" scheduler cycles these matchings round-robin.
struct RotorConfig {
  NodeIndex racks = 8;
  NodeIndex ports_per_rack = 1;
  NodeIndex num_matchings = 0;  ///< 0 = racks - 1 (all offsets covered)
  Delay edge_delay = 1;
  Delay attach_delay = 0;
  Delay fixed_link_delay = 0;

  bool operator==(const RotorConfig&) const = default;
};
Topology build_rotor(const RotorConfig& config);

/// The number of rack-level matchings build_rotor realizes for the config
/// (num_matchings clamped into [1, racks - 1], 0 mapped to racks - 1).
NodeIndex rotor_matchings(const RotorConfig& config);

}  // namespace rdcn
