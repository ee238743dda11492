// Tests of the network model: topology invariants, candidate-edge lookup,
// fixed links, instance validation, serialization round-trips, and the
// parameterized builders.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "net/instance.hpp"
#include "util/rng.hpp"

namespace rdcn {
namespace {

TEST(Topology, BasicConstruction) {
  Topology g;
  EXPECT_EQ(g.add_sources(2), 0);
  EXPECT_EQ(g.add_destinations(2), 0);
  const NodeIndex t0 = g.add_transmitter(0, 1);
  const NodeIndex t1 = g.add_transmitter(1);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(1, 2);
  const EdgeIndex e = g.add_edge(t0, r1, 3);

  EXPECT_EQ(g.num_transmitters(), 2);
  EXPECT_EQ(g.num_receivers(), 2);
  EXPECT_EQ(g.source_of(t1), 1);
  EXPECT_EQ(g.destination_of(r0), 0);
  EXPECT_EQ(g.transmitter_attach_delay(t0), 1);
  EXPECT_EQ(g.receiver_attach_delay(r1), 2);
  EXPECT_EQ(g.total_edge_delay(e), 1 + 3 + 2);
  EXPECT_EQ(g.validate(), "");
}

TEST(Topology, CandidateEdgesFilterBySourceAndDestination) {
  const Instance instance = figure1_instance();
  const Figure1Ids ids = figure1_ids();
  const auto& g = instance.topology();
  EXPECT_EQ(g.candidate_edges(ids.s1, ids.d1), (std::vector<EdgeIndex>{ids.t1r1}));
  EXPECT_EQ(g.candidate_edges(ids.s1, ids.d2), (std::vector<EdgeIndex>{ids.t1r2}));
  EXPECT_EQ(g.candidate_edges(ids.s2, ids.d2), (std::vector<EdgeIndex>{ids.t3r3}));
  EXPECT_EQ(g.candidate_edges(ids.s2, ids.d3), (std::vector<EdgeIndex>{ids.t3r4}));
  EXPECT_TRUE(g.candidate_edges(ids.s1, ids.d3).empty());
}

TEST(Topology, FixedLinkKeepsMinimumDelay) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  g.add_fixed_link(0, 0, 9);
  g.add_fixed_link(0, 0, 4);
  g.add_fixed_link(0, 0, 7);
  EXPECT_EQ(g.fixed_link_delay(0, 0), std::optional<Delay>(4));
  EXPECT_EQ(g.fixed_links().size(), 1u);
}

TEST(Topology, FixedLinkIndexMatchesALinearScan) {
  // Random adds with many duplicates, plus sources and destinations added
  // after the first link (the index re-lays itself out). Every lookup,
  // in range or not, must equal a scan of fixed_links(), and that list
  // must hold each pair once, in first-add order, at its minimum delay.
  Topology g;
  g.add_sources(3);
  g.add_destinations(4);
  Rng rng(17);
  std::vector<FixedLink> expected;
  const auto add = [&](NodeIndex s, NodeIndex d, Delay delay) {
    g.add_fixed_link(s, d, delay);
    for (FixedLink& link : expected) {
      if (link.source == s && link.destination == d) {
        link.delay = std::min(link.delay, delay);
        return;
      }
    }
    expected.push_back(FixedLink{s, d, delay});
  };
  const auto random_adds = [&](int count) {
    for (int i = 0; i < count; ++i) {
      add(static_cast<NodeIndex>(rng.next_int(0, g.num_sources() - 1)),
          static_cast<NodeIndex>(rng.next_int(0, g.num_destinations() - 1)),
          rng.next_int(1, 20));
    }
  };
  random_adds(40);
  g.add_sources(2);
  random_adds(40);
  g.add_destinations(3);
  random_adds(80);

  ASSERT_EQ(g.fixed_links().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(g.fixed_links()[i].source, expected[i].source) << i;
    EXPECT_EQ(g.fixed_links()[i].destination, expected[i].destination) << i;
    EXPECT_EQ(g.fixed_links()[i].delay, expected[i].delay) << i;
  }
  for (NodeIndex s = -1; s <= g.num_sources(); ++s) {
    for (NodeIndex d = -1; d <= g.num_destinations(); ++d) {
      std::optional<Delay> scan;
      for (const FixedLink& link : g.fixed_links()) {
        if (link.source == s && link.destination == d) scan = link.delay;
      }
      EXPECT_EQ(g.fixed_link_delay(s, d), scan) << s << "->" << d;
    }
  }
}

TEST(Topology, RoutableAgreesWithAnEdgeScan) {
  // Oracle: a fixed link, or any reconfigurable edge whose transmitter
  // hangs off the source and whose receiver feeds the destination.
  Rng rng(5);
  TwoTierConfig config;
  config.racks = 6;
  config.density = 0.15;
  const Topology sparse = build_two_tier(config, rng);
  config.fixed_link_delay = 6;
  const Topology hybrid = build_two_tier(config, rng);
  for (const Topology* g : {&sparse, &hybrid}) {
    for (NodeIndex s = 0; s < g->num_sources(); ++s) {
      for (NodeIndex d = -1; d <= g->num_destinations(); ++d) {
        bool expected = false;
        for (const FixedLink& link : g->fixed_links()) {
          expected = expected || (link.source == s && link.destination == d);
        }
        for (const ReconfigEdge& edge : g->edges()) {
          expected = expected || (g->source_of(edge.transmitter) == s &&
                                  g->destination_of(edge.receiver) == d);
        }
        EXPECT_EQ(g->routable(s, d), expected) << s << "->" << d;
      }
    }
    EXPECT_THROW(static_cast<void>(g->routable(-1, 0)), std::out_of_range);
  }
}

TEST(Topology, RejectsInvalidArguments) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  EXPECT_THROW(g.add_transmitter(5), std::out_of_range);
  EXPECT_THROW(g.add_receiver(-1), std::out_of_range);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  EXPECT_THROW(g.add_edge(t, r, 0), std::invalid_argument);
  EXPECT_THROW(g.add_fixed_link(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_transmitter(0, -1), std::invalid_argument);
}

TEST(Instance, ValidateCatchesBrokenInputs) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);

  {
    Instance instance(g, {});
    instance.add_packet(1, 1.0, 0, 0);
    EXPECT_EQ(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(0, 1.0, 0, 0);  // arrival < 1
    EXPECT_NE(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(1, 0.0, 0, 0);  // weight 0
    EXPECT_NE(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(2, 1.0, 0, 0);
    EXPECT_THROW(instance.add_packet(1, 1.0, 0, 0), std::invalid_argument);  // out of order
  }
}

TEST(Instance, SerializationRoundTrips) {
  const Instance original = figure1_instance();
  const std::string text = original.to_string();
  const Instance loaded = Instance::from_string(text);
  EXPECT_EQ(loaded.validate(), "");
  EXPECT_EQ(loaded.num_packets(), original.num_packets());
  EXPECT_EQ(loaded.topology().num_edges(), original.topology().num_edges());
  EXPECT_EQ(loaded.to_string(), text);  // canonical form is a fixpoint
}

TEST(Instance, SerializationRejectsGarbage) {
  std::istringstream bad("not-an-instance v1\n");
  EXPECT_THROW(Instance::load(bad), std::runtime_error);
}

TEST(Instance, IdealCostOnFigure1) {
  // p1..p4: best path latency 1 each; p5: min(reconfig 1, fixed 4) = 1.
  EXPECT_DOUBLE_EQ(figure1_instance().ideal_cost(), 5.0);
}

TEST(Instance, IntegerWeightDetection) {
  Instance instance = figure1_instance();
  EXPECT_TRUE(instance.has_integer_weights());
  instance.add_packet(5, 1.5, 0, 0);
  EXPECT_FALSE(instance.has_integer_weights());
}

TEST(Builders, TwoTierKeepsPairsRoutable) {
  Rng rng(17);
  TwoTierConfig config;
  config.racks = 5;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.density = 0.3;  // sparse: forces the routability fallback
  const Topology g = build_two_tier(config, rng);
  EXPECT_EQ(g.validate(), "");
  for (NodeIndex s = 0; s < 5; ++s) {
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
    }
  }
}

TEST(Builders, TwoTierHybridAddsAllFixedLinks) {
  Rng rng(18);
  TwoTierConfig config;
  config.racks = 4;
  config.density = 0.0;  // no reconfigurable edges at all
  config.fixed_link_delay = 8;
  const Topology g = build_two_tier(config, rng);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.fixed_links().size(), 4u * 3u);
  EXPECT_TRUE(g.routable(0, 3));
}

TEST(Builders, TwoTierDelaysInRange) {
  Rng rng(19);
  TwoTierConfig config;
  config.racks = 4;
  config.max_edge_delay = 5;
  const Topology g = build_two_tier(config, rng);
  for (const auto& edge : g.edges()) {
    EXPECT_GE(edge.delay, 1);
    EXPECT_LE(edge.delay, 5);
  }
}

TEST(Builders, CrossbarIsCompleteBipartite) {
  const Topology g = build_crossbar(4);
  EXPECT_EQ(g.num_transmitters(), 4);
  EXPECT_EQ(g.num_receivers(), 4);
  EXPECT_EQ(g.num_edges(), 16);
  EXPECT_EQ(g.validate(), "");
  for (const auto& edge : g.edges()) EXPECT_EQ(edge.delay, 1);
  // Port i's transmitter reaches every output.
  EXPECT_EQ(g.candidate_edges(0, 3).size(), 1u);
}

TEST(Builders, Figure2TopologyShape) {
  const Topology g = figure2_topology();
  EXPECT_EQ(g.num_transmitters(), 2);
  EXPECT_EQ(g.num_receivers(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.fixed_links().empty());
}

TEST(Instance, HorizonBoundDominatesArrivalsAndWork) {
  const Instance instance = figure1_instance();
  EXPECT_GE(instance.horizon_bound(), 2 + 5 * 4);  // arrivals + n * max delay
}

// --- topology zoo -----------------------------------------------------------

namespace zoo {

/// Canonical edge-list fingerprint: (transmitter, receiver, delay) triples
/// in construction order, plus the fixed links.
std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> edge_list(const Topology& g) {
  std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> list;
  for (const ReconfigEdge& edge : g.edges()) {
    list.emplace_back(edge.transmitter, edge.receiver, edge.delay);
  }
  for (const FixedLink& link : g.fixed_links()) {
    list.emplace_back(-1 - link.source, -1 - link.destination, link.delay);
  }
  return list;
}

std::vector<std::size_t> rack_out_degrees(const Topology& g) {
  std::vector<std::size_t> degrees(static_cast<std::size_t>(g.num_sources()), 0);
  for (const ReconfigEdge& edge : g.edges()) {
    ++degrees[static_cast<std::size_t>(g.source_of(edge.transmitter))];
  }
  return degrees;
}

std::vector<std::size_t> rack_in_degrees(const Topology& g) {
  std::vector<std::size_t> degrees(static_cast<std::size_t>(g.num_destinations()), 0);
  for (const ReconfigEdge& edge : g.edges()) {
    ++degrees[static_cast<std::size_t>(g.destination_of(edge.receiver))];
  }
  return degrees;
}

}  // namespace zoo

TEST(Oversubscribed, PortAsymmetryAndDelayClasses) {
  OversubscribedConfig config;
  config.racks = 6;
  config.hot_racks = 2;
  config.hot_lasers = 4;
  config.hot_photodetectors = 2;
  config.cold_lasers = 1;
  config.cold_photodetectors = 1;
  config.density = 0.8;
  config.fast_delay = 1;
  config.slow_delay = 5;
  config.slow_fraction = 0.5;
  Rng rng(23);
  const Topology g = build_oversubscribed(config, rng);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(g.num_transmitters(), 2 * 4 + 4 * 1);
  EXPECT_EQ(g.num_receivers(), 2 * 2 + 4 * 1);
  // Every edge belongs to exactly one delay class.
  for (const ReconfigEdge& edge : g.edges()) {
    EXPECT_TRUE(edge.delay == 1 || edge.delay == 5) << edge.delay;
  }
}

TEST(Oversubscribed, FixedLayerScaledByOversubscription) {
  OversubscribedConfig config;
  config.racks = 4;
  config.fixed_base_delay = 3;
  config.oversubscription = 4.0;
  Rng rng(24);
  const Topology g = build_oversubscribed(config, rng);
  ASSERT_EQ(g.fixed_links().size(), 4u * 3u);
  for (const FixedLink& link : g.fixed_links()) EXPECT_EQ(link.delay, 12);
  // Hybrid layer present: every ordered rack pair is routable.
  for (NodeIndex s = 0; s < 4; ++s) {
    for (NodeIndex d = 0; d < 4; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Oversubscribed, RoutablePatchWithoutFixedLayer) {
  OversubscribedConfig config;
  config.racks = 5;
  config.density = 0.05;  // sparse: forces the patch path
  config.fixed_base_delay = 0;
  Rng rng(25);
  const Topology g = build_oversubscribed(config, rng);
  EXPECT_TRUE(g.fixed_links().empty());
  for (NodeIndex s = 0; s < 5; ++s) {
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Oversubscribed, RejectsInvalidConfigs) {
  Rng rng(1);
  OversubscribedConfig config;
  config.racks = 1;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.hot_racks = config.racks + 1;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.slow_delay = 0;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.oversubscription = 0.5;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
}

TEST(Expander, ExactRackRegularity) {
  ExpanderConfig config;
  config.racks = 9;
  config.degree = 3;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.fixed_link_delay = 0;
  Rng rng(31);
  const Topology g = build_expander(config, rng);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(g.num_edges(), 9 * 3);
  // d-regular at rack level: every rack sends and receives exactly d edges.
  for (const std::size_t degree : zoo::rack_out_degrees(g)) EXPECT_EQ(degree, 3u);
  for (const std::size_t degree : zoo::rack_in_degrees(g)) EXPECT_EQ(degree, 3u);
  // Derangements: no self-rack edge.
  for (const ReconfigEdge& edge : g.edges()) {
    EXPECT_NE(g.source_of(edge.transmitter), g.destination_of(edge.receiver));
  }
}

TEST(Expander, HybridFallbackGuaranteesRoutability) {
  ExpanderConfig config;
  config.racks = 8;
  config.degree = 2;
  config.fixed_link_delay = 8;
  Rng rng(32);
  const Topology g = build_expander(config, rng);
  for (NodeIndex s = 0; s < 8; ++s) {
    for (NodeIndex d = 0; d < 8; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Expander, WithoutFixedLayerRoutabilityEqualsWiring) {
  // Pure expander (no hybrid fallback): a pair is routable exactly when a
  // permutation wired it, and every rack reaches between 1 and degree
  // distinct destination racks (permutations may collide on a target).
  ExpanderConfig config;
  config.racks = 5;
  config.degree = 4;
  config.fixed_link_delay = 0;
  Rng rng(33);
  const Topology g = build_expander(config, rng);
  for (NodeIndex s = 0; s < 5; ++s) {
    std::size_t reachable = 0;
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_EQ(g.routable(s, d), !g.candidate_edges(s, d).empty());
      if (g.routable(s, d)) ++reachable;
    }
    EXPECT_GE(reachable, 1u);
    EXPECT_LE(reachable, 4u);
  }
}

TEST(Expander, RejectsInvalidConfigs) {
  Rng rng(1);
  ExpanderConfig config;
  config.degree = 0;
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
  config = {};
  config.racks = 4;
  config.degree = 4;  // > racks - 1
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
  config = {};
  config.max_edge_delay = 0;
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
}

TEST(Rotor, FullCoverageWiresEveryOrderedPairOnce) {
  RotorConfig config;
  config.racks = 6;
  config.ports_per_rack = 2;
  config.num_matchings = 0;  // racks - 1
  const Topology g = build_rotor(config);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(rotor_matchings(config), 5);
  EXPECT_EQ(g.num_edges(), 6 * 5);
  std::set<std::pair<NodeIndex, NodeIndex>> wired;
  for (const ReconfigEdge& edge : g.edges()) {
    const auto pair = std::make_pair(g.source_of(edge.transmitter),
                                     g.destination_of(edge.receiver));
    EXPECT_NE(pair.first, pair.second);
    EXPECT_TRUE(wired.insert(pair).second) << "duplicate rack pair";
  }
  EXPECT_EQ(wired.size(), 6u * 5u);
}

TEST(Rotor, SparseMatchingsCoverExactlyTheRoundRobinOffsets) {
  RotorConfig config;
  config.racks = 7;
  config.num_matchings = 3;
  const Topology g = build_rotor(config);
  EXPECT_EQ(g.num_edges(), 7 * 3);
  for (NodeIndex s = 0; s < 7; ++s) {
    for (NodeIndex d = 0; d < 7; ++d) {
      if (s == d) continue;
      const NodeIndex offset = (d - s + 7) % 7;
      EXPECT_EQ(g.routable(s, d), offset <= 3) << s << "->" << d;
    }
  }
}

TEST(Rotor, DeterministicWithoutRandomness) {
  RotorConfig config;
  config.racks = 5;
  config.ports_per_rack = 2;
  EXPECT_EQ(zoo::edge_list(build_rotor(config)), zoo::edge_list(build_rotor(config)));
}

TEST(Rotor, RejectsInvalidConfigs) {
  RotorConfig config;
  config.racks = 1;
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
  config = {};
  config.racks = 4;
  config.num_matchings = 4;  // > racks - 1
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
  config = {};
  config.ports_per_rack = 0;
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
}

}  // namespace
}  // namespace rdcn
