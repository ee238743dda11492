// The incremental impact index (sim/impact_index.hpp), pinned at three
// levels:
//
//  1. unit: ImpactAggregate against hand-built multisets, including the
//     canonical-shape guarantee -- any insertion/removal history of the
//     same multiset yields BIT-identical counts and weight sums;
//  2. differential: check_impact_index replays ALG over the topology zoo
//     and the random instance family, cross-validating the live index
//     against the naive scan and a fresh canonical rebuild at every
//     candidate edge of every dispatch;
//  3. golden: schedule hashes of all 12 registry policies over four zoo
//     shapes, captured from pre-index main -- the index refactor changed
//     no schedule anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "baseline/dispatchers.hpp"
#include "check/differential.hpp"
#include "core/alg.hpp"
#include "core/impact.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "sim/impact_index.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

// --------------------------------------------------------------------------
// 1. ImpactAggregate units

TEST(ImpactAggregate, HandMultiset) {
  // Chunks: 3 @ 0.5, 2 @ 1.0, 4 @ 2.0.
  ImpactAggregate agg;
  agg.add(1.0, 2);
  agg.add(0.5, 3);
  agg.add(2.0, 4);
  EXPECT_EQ(agg.chunks(), 9);

  const WeightBelow none = agg.below(0.25);
  EXPECT_EQ(none.chunks, 0);
  EXPECT_DOUBLE_EQ(none.weight, 0.0);

  // Strictly below 1.0: only the 0.5s; the 1.0s tie upward (>= is H).
  const WeightBelow below_one = agg.below(1.0);
  EXPECT_EQ(below_one.chunks, 3);
  EXPECT_DOUBLE_EQ(below_one.weight, 1.5);

  const WeightBelow below_all = agg.below(3.0);
  EXPECT_EQ(below_all.chunks, 9);
  EXPECT_DOUBLE_EQ(below_all.weight, 1.5 + 2.0 + 8.0);
}

TEST(ImpactAggregate, CanonicalShapeIsHistoryIndependent) {
  // The same final multiset reached through three different histories
  // (sorted inserts; reverse inserts; overshoot-then-remove with key
  // churn) must produce bit-identical sums at every threshold.
  const std::vector<double> keys = {0.125, 0.2, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.5, 4.0};
  const std::vector<std::int64_t> counts = {3, 1, 7, 2, 5, 1, 4, 2};

  ImpactAggregate sorted, reversed, churned;
  for (std::size_t i = 0; i < keys.size(); ++i) sorted.add(keys[i], counts[i]);
  for (std::size_t i = keys.size(); i-- > 0;) reversed.add(keys[i], counts[i]);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    churned.add(keys[i], counts[i] + 5);
    churned.add(keys[(i + 3) % keys.size()], 2);  // transient extra mass
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    churned.add(keys[i], -5);
    churned.add(keys[(i + 3) % keys.size()], -2);
  }

  for (const double threshold : {0.1, 0.2, 0.4, 0.5, 0.9, 1.0, 2.0, 10.0}) {
    const WeightBelow a = sorted.below(threshold);
    const WeightBelow b = reversed.below(threshold);
    const WeightBelow c = churned.below(threshold);
    EXPECT_EQ(a.chunks, b.chunks) << threshold;
    EXPECT_EQ(a.chunks, c.chunks) << threshold;
    // Bitwise, not NEAR: the canonical treap shape fixes the bracketing.
    EXPECT_EQ(a.weight, b.weight) << threshold;
    EXPECT_EQ(a.weight, c.weight) << threshold;
  }
  EXPECT_EQ(sorted.chunks(), reversed.chunks());
  EXPECT_EQ(sorted.chunks(), churned.chunks());
}

TEST(ImpactAggregate, RemovalToEmptyAndReuse) {
  ImpactAggregate agg;
  for (int round = 0; round < 3; ++round) {
    agg.add(0.5, 2);
    agg.add(1.5, 1);
    EXPECT_EQ(agg.chunks(), 3);
    agg.add(0.5, -2);
    agg.add(1.5, -1);
    EXPECT_EQ(agg.chunks(), 0);
    EXPECT_EQ(agg.below(10.0).chunks, 0);
    EXPECT_DOUBLE_EQ(agg.below(10.0).weight, 0.0);
  }
}

TEST(ImpactAggregate, RandomizedAgainstFlatReference) {
  // Counts are exact against a flat reference at every probe; the weight
  // sum agrees with a flat double sum to reassociation tolerance and with
  // an independently-ordered aggregate bitwise.
  Rng rng(7);
  ImpactAggregate agg;
  std::vector<std::pair<double, std::int64_t>> reference;  // key -> count
  for (int step = 0; step < 4000; ++step) {
    // Keys from a small pool so removals hit existing keys.
    const double key =
        static_cast<double>(1 + rng.next_below(40)) / static_cast<double>(1 + rng.next_below(7));
    auto it = std::find_if(reference.begin(), reference.end(),
                           [&](const auto& kv) { return kv.first == key; });
    const bool remove = it != reference.end() && rng.next_below(3) == 0;
    if (remove) {
      agg.add(key, -it->second);
      reference.erase(it);
    } else {
      const auto delta = static_cast<std::int64_t>(1 + rng.next_below(5));
      agg.add(key, delta);
      if (it == reference.end()) {
        reference.emplace_back(key, delta);
      } else {
        it->second += delta;
      }
    }
    if (step % 97 != 0) continue;
    const double threshold =
        static_cast<double>(1 + rng.next_below(40)) / static_cast<double>(1 + rng.next_below(7));
    std::int64_t want_chunks = 0, want_total = 0;
    double want_weight = 0.0;
    for (const auto& [k, count] : reference) {
      want_total += count;
      if (k < threshold) {
        want_chunks += count;
        want_weight += static_cast<double>(count) * k;
      }
    }
    const WeightBelow got = agg.below(threshold);
    EXPECT_EQ(got.chunks, want_chunks);
    EXPECT_EQ(agg.chunks(), want_total);
    EXPECT_NEAR(got.weight, want_weight, 1e-9 * (1.0 + want_weight));

    ImpactAggregate rebuilt;  // sorted-order rebuild: bitwise equal
    std::vector<std::pair<double, std::int64_t>> sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [k, count] : sorted) rebuilt.add(k, count);
    EXPECT_EQ(rebuilt.below(threshold).weight, got.weight);
  }
}

// --------------------------------------------------------------------------
// 1b. The live index's inline structures against the plain-treap oracle

/// Two transmitters x two receivers, with the (t0, r0) pair doubled, so the
/// pair structure of edges 0 and 1 is shared and differs from both
/// endpoint structures.
Topology inline_topology() {
  Topology topology;
  topology.add_sources(2);
  topology.add_destinations(2);
  const NodeIndex t0 = topology.add_transmitter(0);
  const NodeIndex t1 = topology.add_transmitter(1);
  const NodeIndex r0 = topology.add_receiver(0);
  const NodeIndex r1 = topology.add_receiver(1);
  topology.add_edge(t0, r0);
  topology.add_edge(t0, r0);
  topology.add_edge(t0, r1);
  topology.add_edge(t1, r0);
  topology.add_edge(t1, r1);
  return topology;
}

/// Pending chunks per (edge, chunk-weight key): the multiset the index
/// must describe, kept as plain data.
struct Multiset {
  std::vector<std::vector<std::pair<double, std::int64_t>>> by_edge;

  std::int64_t& at(EdgeIndex e, double key) {
    auto& keys = by_edge[static_cast<std::size_t>(e)];
    for (auto& [k, count] : keys) {
      if (k == key) return count;
    }
    return keys.emplace_back(key, 0).second;
  }
};

/// Replays `multiset` into one oracle aggregate per structure that `e`
/// reads -- every edge sharing its transmitter, its receiver, or both --
/// and combines them the way the live index does.
ImpactSplit oracle_split(const Topology& topology, const Multiset& multiset, EdgeIndex e,
                         double threshold) {
  const ReconfigEdge& edge = topology.edge(e);
  ImpactAggregate t, r, pair;
  for (EdgeIndex f = 0; f < topology.num_edges(); ++f) {
    const ReconfigEdge& other = topology.edge(f);
    for (const auto& [key, count] : multiset.by_edge[static_cast<std::size_t>(f)]) {
      if (count == 0) continue;
      if (other.transmitter == edge.transmitter) t.add(key, count);
      if (other.receiver == edge.receiver) r.add(key, count);
      if (other.transmitter == edge.transmitter && other.receiver == edge.receiver) {
        pair.add(key, count);
      }
    }
  }
  return combine_impact(t.chunks(), t.below(threshold), r.chunks(), r.below(threshold),
                        pair.chunks(), pair.below(threshold));
}

/// Every edge_split of the live index, bit for bit against the oracle, at
/// thresholds on, between, below and above the keys in use.
void expect_matches_oracle(ImpactIndex& index, const Topology& topology,
                           const Multiset& multiset, const std::vector<double>& keys,
                           const std::string& where) {
  std::vector<double> thresholds = {0.0, 100.0};
  for (const double key : keys) {
    thresholds.push_back(key);
    thresholds.push_back(key * 1.5);
  }
  for (EdgeIndex e = 0; e < topology.num_edges(); ++e) {
    for (const double threshold : thresholds) {
      const ImpactSplit live = index.edge_split(e, threshold);
      const ImpactSplit want = oracle_split(topology, multiset, e, threshold);
      ASSERT_EQ(live.heavier, want.heavier)
          << where << " edge " << e << " at " << threshold;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(live.lighter_weight),
                std::bit_cast<std::uint64_t>(want.lighter_weight))
          << where << " edge " << e << " at " << threshold << ": " << live.lighter_weight
          << " vs " << want.lighter_weight;
    }
  }
}

/// Distinct (structure, key) pairs of the multiset: what live_weight_keys()
/// must report.
std::size_t distinct_structure_keys(const Topology& topology, const Multiset& multiset) {
  std::vector<std::pair<std::int64_t, double>> seen;  // (structure id, key)
  for (EdgeIndex e = 0; e < topology.num_edges(); ++e) {
    const ReconfigEdge& edge = topology.edge(e);
    const std::int64_t structures[] = {
        edge.transmitter, 100 + edge.receiver,
        200 + 10 * static_cast<std::int64_t>(edge.transmitter) + edge.receiver};
    for (const auto& [key, count] : multiset.by_edge[static_cast<std::size_t>(e)]) {
      if (count == 0) continue;
      for (const std::int64_t s : structures) seen.emplace_back(s, key);
    }
  }
  std::sort(seen.begin(), seen.end());
  return static_cast<std::size_t>(std::unique(seen.begin(), seen.end()) - seen.begin());
}

TEST(ImpactIndexInline, ScriptedTransitionsMatchPlainTreap) {
  // One edge walks its structures through 0 -> 1 -> 2 -> 3 keys (inline,
  // inline, promoted to a treap) and back down, with a key re-added after
  // it drained and negative deltas that drain a key to exactly zero.
  const Topology topology = inline_topology();
  ImpactIndex index;
  index.attach(topology);
  index.begin_rebuild();
  Multiset multiset;
  multiset.by_edge.resize(static_cast<std::size_t>(topology.num_edges()));
  const std::vector<double> keys = {0.5, 1.0 / 3.0, 2.0, 0.75};
  const auto apply = [&](EdgeIndex e, double key, std::int64_t delta) {
    const ReconfigEdge& edge = topology.edge(e);
    index.add_chunks(edge.transmitter, edge.receiver, e, key, delta);
    multiset.at(e, key) += delta;
    expect_matches_oracle(index, topology, multiset, keys,
                          "after " + std::to_string(delta) + " @ " + std::to_string(key));
  };
  apply(0, 0.5, 2);          // 0 -> 1 key
  apply(0, 1.0 / 3.0, 1);    // 1 -> 2 keys, new key below the first
  apply(0, 2.0, 3);          // 2 -> 3 keys: promoted
  apply(0, 0.75, 1);         // 4 keys in the treap
  apply(0, 0.75, -1);        // back to 3
  apply(0, 1.0 / 3.0, -1);   // 3 -> 2: demoted
  apply(0, 0.5, -2);         // 2 -> 1, the lower entry drained to zero
  apply(0, 0.5, 4);          // the drained key comes back
  apply(1, 0.5, 1);          // the parallel edge shares the pair structure
  apply(0, 2.0, -3);
  apply(0, 0.5, -4);
  apply(1, 0.5, -1);         // everything drained
  EXPECT_EQ(index.live_weight_keys(), 0u);
  apply(2, 2.0, 1);          // a drained index takes keys again
  EXPECT_EQ(index.live_weight_keys(), distinct_structure_keys(topology, multiset));
}

TEST(ImpactIndexInline, RandomSequencesMatchPlainTreapBitForBit) {
  // Random add/remove streams over a small key pool keep every structure
  // near the inline/treap boundary; each step is checked against oracle
  // aggregates rebuilt from the multiset. Partway through each stream a
  // long query-free streak runs, then a rebuild from the multiset.
  const Topology topology = inline_topology();
  const std::vector<double> keys = {0.25, 0.5, 1.0 / 3.0, 1.0, 2.0};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ImpactIndex index;
    index.attach(topology);
    index.begin_rebuild();
    Multiset multiset;
    multiset.by_edge.resize(static_cast<std::size_t>(topology.num_edges()));
    const auto add = [&](EdgeIndex e, double key, std::int64_t delta) {
      const ReconfigEdge& edge = topology.edge(e);
      index.add_chunks(edge.transmitter, edge.receiver, e, key, delta);
      multiset.at(e, key) += delta;
    };
    for (int step = 0; step < 300; ++step) {
      const auto e = static_cast<EdgeIndex>(rng.next_below(5));
      const double key = keys[rng.next_below(keys.size())];
      const std::int64_t held = multiset.at(e, key);
      if (held > 0 && rng.next_below(2) == 0) {
        // Remove part or, half the time, all of it (a drain to zero).
        const std::int64_t take =
            rng.next_below(2) == 0 ? held
                                   : 1 + static_cast<std::int64_t>(rng.next_below(
                                             static_cast<std::uint64_t>(held)));
        add(e, key, -take);
      } else {
        add(e, key, 1 + static_cast<std::int64_t>(rng.next_below(3)));
      }
      if (step % 3 == 0) {
        const std::string where =
            "seed " + std::to_string(seed) + " step " + std::to_string(step);
        expect_matches_oracle(index, topology, multiset, keys, where);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(index.live_weight_keys(), distinct_structure_keys(topology, multiset));
      }
      if (step == 150) {
        // Hundreds of updates with no query in between: each is applied as
        // it happens, so the index must still match the oracle, and a
        // rebuild from the multiset must reproduce it.
        for (int churn = 0; churn < 300; ++churn) {
          const auto f = static_cast<EdgeIndex>(rng.next_below(5));
          add(f, keys[rng.next_below(keys.size())], 1);
          add(f, keys[0], 1);
          add(f, keys[0], -1);
        }
        ASSERT_TRUE(index.weight_ready());
        expect_matches_oracle(index, topology, multiset, keys,
                              "seed " + std::to_string(seed) + " after churn");
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(index.live_weight_keys(), distinct_structure_keys(topology, multiset));
        index.begin_rebuild();
        for (EdgeIndex f = 0; f < topology.num_edges(); ++f) {
          const ReconfigEdge& edge = topology.edge(f);
          for (const auto& [k, count] : multiset.by_edge[static_cast<std::size_t>(f)]) {
            index.rebuild_add(edge.transmitter, edge.receiver, f, k, count);
          }
        }
        expect_matches_oracle(index, topology, multiset, keys,
                              "seed " + std::to_string(seed) + " after rebuild");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ImpactIndexInline, MisuseThrowsOnEveryRepresentation) {
  // Removing at an absent key, or more chunks than a key holds, is an
  // engine bug whichever representation the structure is in.
  const Topology topology = inline_topology();
  for (const int held_keys : {0, 1, 2, 3}) {
    ImpactIndex index;
    index.attach(topology);
    index.begin_rebuild();
    for (int k = 0; k < held_keys; ++k) index.add_chunks(0, 0, 0, 1.0 + k, 2);
    EXPECT_THROW(index.add_chunks(0, 0, 0, 9.0, -1), std::logic_error)
        << held_keys << " keys, absent";
    if (held_keys == 0) continue;
    ImpactIndex over;
    over.attach(topology);
    over.begin_rebuild();
    for (int k = 0; k < held_keys; ++k) over.add_chunks(0, 0, 0, 1.0 + k, 2);
    EXPECT_THROW(over.add_chunks(0, 0, 0, 1.0, -3), std::logic_error)
        << held_keys << " keys, negative";
  }
}

// --------------------------------------------------------------------------
// 2. Differential: live index vs scan vs fresh rebuild, over real runs

struct ZooCase {
  const char* name;
  Topology topology;
  PairSkew skew;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  cases.push_back({"crossbar6", build_crossbar(6), PairSkew::Uniform});
  {
    TwoTierConfig net;
    net.racks = 8;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.5;
    net.max_edge_delay = 3;
    Rng rng(5);
    cases.push_back({"two_tier8x2", build_two_tier(net, rng), PairSkew::Hotspot});
  }
  {
    TwoTierConfig net;
    net.racks = 6;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.6;
    net.max_edge_delay = 2;
    net.fixed_link_delay = 6;
    Rng rng(11);
    cases.push_back({"hybrid6x2", build_two_tier(net, rng), PairSkew::Incast});
  }
  {
    ExpanderConfig net;
    net.racks = 10;
    net.degree = 3;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.max_edge_delay = 2;
    Rng rng(9);
    cases.push_back({"expander10d3", build_expander(net, rng), PairSkew::Uniform});
  }
  return cases;
}

Instance zoo_instance(const ZooCase& shape) {
  WorkloadConfig workload;
  workload.num_packets = 120;
  workload.arrival_rate = 4.0;
  workload.skew = shape.skew;
  workload.weights = WeightDist::UniformInt;
  workload.weight_max = 10;
  workload.seed = 29;
  return generate_workload(shape.topology, workload);
}

TEST(ImpactIndexDifferential, ZooShapes) {
  for (const ZooCase& shape : zoo_cases()) {
    check::DiffReport report;
    check::check_impact_index(zoo_instance(shape), report);
    EXPECT_TRUE(report.ok()) << shape.name << ": " << report.to_string();
  }
}

class ImpactIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImpactIndexProperty, IndexMatchesOraclesEverywhere) {
  check::DiffReport report;
  check::check_impact_index(testing::make_varied_instance(GetParam()), report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(VariedInstances, ImpactIndexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 101, 104,
                                           107, 110, 113, 116, 119, 122));

TEST(ImpactIndexLifecycle, NonImpactPoliciesNeverEnableWeightStructures) {
  // JSQ reads only the O(1) counters; the weight structures must stay off
  // for the entire run.
  const Instance instance = testing::make_varied_instance(105);
  const PolicyFactory policy = named_policy("jsq");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  Engine engine(instance, *dispatcher, *scheduler, {});
  ASSERT_FALSE(engine.impact_index().weight_ready());
  engine.run();
  EXPECT_FALSE(engine.impact_index().weight_ready());
  EXPECT_EQ(engine.impact_index().live_weight_keys(), 0u);
}

/// Routes the first `switch_at` packets by JSQ, which never queries the
/// impact index, and every later one by ALG's impact_of. Before each
/// impact decision it checks every candidate edge's live split against
/// fresh ImpactAggregate oracles over the endpoint queues (bit for bit)
/// and impact_of against impact_of_scan (|H| exact, w(L) to reassociation
/// tolerance). The first check is the query that enables the index.
class JsqThenImpactDispatcher final : public DispatchPolicy {
 public:
  explicit JsqThenImpactDispatcher(std::size_t switch_at) : switch_at_(switch_at) {}

  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    if (dispatched_++ < switch_at_) {
      if (engine.impact_index().weight_ready()) enabled_during_prefix = true;
      return jsq_.dispatch(engine, packet);
    }
    if (!engine.impact_index().weight_ready()) {
      for (NodeIndex t = 0; t < engine.topology().num_transmitters(); ++t) {
        backlog_at_enable += engine.impact_index().transmitter_chunks(t);
      }
    }
    engine.viable_edges_into(packet.source, packet.destination, edges_);
    for (const EdgeIndex e : edges_) check_edge(engine, packet, e);
    return impact_.dispatch(engine, packet);
  }

  std::int64_t backlog_at_enable = 0;  ///< pending chunks at the first query
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  bool enabled_during_prefix = false;

 private:
  void check_edge(const Engine& engine, const Packet& packet, EdgeIndex e) {
    const ReconfigEdge& edge = engine.topology().edge(e);
    const double threshold = packet.weight / static_cast<double>(edge.delay);
    t_.clear();
    r_.clear();
    pair_.clear();
    for (const PacketIndex q : engine.pending_on_transmitter(edge.transmitter)) {
      t_.add(engine.chunk_weight(q), engine.remaining_chunks(q));
    }
    for (const PacketIndex q : engine.pending_on_receiver(edge.receiver)) {
      r_.add(engine.chunk_weight(q), engine.remaining_chunks(q));
      if (engine.assigned_transmitter(q) == edge.transmitter) {
        pair_.add(engine.chunk_weight(q), engine.remaining_chunks(q));
      }
    }
    const ImpactSplit want =
        combine_impact(t_.chunks(), t_.below(threshold), r_.chunks(), r_.below(threshold),
                       pair_.chunks(), pair_.below(threshold));
    const ImpactSplit live = engine.impact_split(e, threshold);
    const ImpactBreakdown indexed = impact_of(engine, packet, e);
    const ImpactBreakdown scan = impact_of_scan(engine, packet, e);
    ++checked;
    if (live.heavier != want.heavier ||
        std::bit_cast<std::uint64_t>(live.lighter_weight) !=
            std::bit_cast<std::uint64_t>(want.lighter_weight) ||
        indexed.h_count != scan.h_count ||
        std::abs(indexed.l_weight - scan.l_weight) > 1e-9 * (1.0 + scan.l_weight)) {
      if (mismatches++ == 0) {
        first_mismatch = "packet " + std::to_string(packet.id) + " edge " +
                         std::to_string(e) + ": live (" + std::to_string(live.heavier) +
                         ", " + std::to_string(live.lighter_weight) + ") oracle (" +
                         std::to_string(want.heavier) + ", " +
                         std::to_string(want.lighter_weight) + ") scan (" +
                         std::to_string(scan.h_count) + ", " +
                         std::to_string(scan.l_weight) + ")";
      }
    }
  }

  std::size_t switch_at_;
  std::size_t dispatched_ = 0;
  JsqDispatcher jsq_;
  ImpactDispatcher impact_;
  std::vector<EdgeIndex> edges_;
  ImpactAggregate t_, r_, pair_;
};

TEST(ImpactIndexLifecycle, FirstQueryAtDepthEnablesThenMaintainsExactly) {
  // The weight structures are built by the first impact query from
  // whatever backlog is pending then -- here over 1.5k chunks left by a
  // 1500-packet JSQ prefix of the deep-queue instance -- and maintained on
  // every update after it. Every split from then on must match the
  // oracles.
  const Instance instance = testing::deep_queue_instance();
  JsqThenImpactDispatcher dispatcher(1500);
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.audit = true;
  const RunResult run = simulate(instance, dispatcher, scheduler, options);
  EXPECT_FALSE(dispatcher.enabled_during_prefix);
  EXPECT_EQ(dispatcher.mismatches, 0u) << dispatcher.first_mismatch;
  EXPECT_GE(dispatcher.backlog_at_enable, 1500);
  EXPECT_GT(dispatcher.checked, instance.num_packets() - 1500);
  EXPECT_GT(run.makespan, 0);
}

TEST(ImpactIndexLifecycle, QueryFreeUpkeepBeyondARebuildDropsWeightsAndNextQueryRebuildsExactly) {
  // Two streaming ALG engines take the same 300-packet burst at step 1 and
  // drain it. `asked` sees an impact query before every drain step, so it
  // keeps its weight structures and maintains them through the service
  // updates. `quiet` sees none: it keeps maintaining them while the
  // updates since its last query number at most its pending packets (a
  // rebuild's cost), and drops them at the first step that starts beyond
  // that. A query then rebuilds quiet's structures from its pending store,
  // and every split must match asked's bit for bit.
  TwoTierConfig net;
  net.racks = 8;
  net.density = 1.0;
  net.max_edge_delay = 3;
  Rng topology_rng(5);
  const Topology topology = build_two_tier(net, topology_rng);
  ImpactDispatcher asked_dispatcher;
  ImpactDispatcher quiet_dispatcher;
  StableMatchingScheduler asked_scheduler;
  StableMatchingScheduler quiet_scheduler;
  const auto sink = [](RetiredPacket&&) {};
  Engine asked(topology, asked_dispatcher, asked_scheduler, {}, sink);
  Engine quiet(topology, quiet_dispatcher, quiet_scheduler, {}, sink);
  Rng rng(9);
  const Time arrival = 1;
  asked.begin_step(&arrival);
  quiet.begin_step(&arrival);
  for (PacketIndex id = 0; id < 300; ++id) {
    Packet p;
    p.id = id;
    p.arrival = arrival;
    p.weight = rng.next_double(0.5, 8.0);
    p.source = static_cast<NodeIndex>(rng.next_below(8));
    p.destination = static_cast<NodeIndex>((p.source + 1 + rng.next_below(7)) % 8);
    asked.inject(p);
    quiet.inject(p);
  }
  asked.finish_step();
  quiet.finish_step();
  ASSERT_TRUE(quiet.impact_index().weight_ready());

  int kept_steps = 0;  // query-free drain steps that kept the structures
  for (;;) {
    ASSERT_TRUE(quiet.busy()) << "drained before the rule dropped the structures";
    const std::size_t updates = quiet.impact_index().updates_since_query();
    const std::size_t pending = quiet.pending_candidates().size();
    (void)asked.impact_split(0, 1.0);
    for (Engine* engine : {&asked, &quiet}) {
      engine->begin_step(nullptr);
      engine->finish_step();
    }
    ASSERT_TRUE(asked.impact_index().weight_ready()) << "drain step " << kept_steps;
    if (updates > pending) {
      ASSERT_FALSE(quiet.impact_index().weight_ready()) << "drain step " << kept_steps;
      break;
    }
    ASSERT_TRUE(quiet.impact_index().weight_ready()) << "drain step " << kept_steps;
    ASSERT_GT(quiet.impact_index().updates_since_query(), updates);
    ++kept_steps;
  }
  EXPECT_GT(kept_steps, 1) << "one query-free step must not drop a deep backlog's structures";
  // Off, the structures take no upkeep and count none.
  quiet.begin_step(nullptr);
  quiet.finish_step();
  EXPECT_FALSE(quiet.impact_index().weight_ready());
  EXPECT_EQ(quiet.impact_index().live_weight_keys(), 0u);
  EXPECT_EQ(quiet.impact_index().updates_since_query(), 0u);
  (void)asked.impact_split(0, 1.0);
  asked.begin_step(nullptr);
  asked.finish_step();
  ASSERT_TRUE(quiet.busy());
  ASSERT_GT(asked.impact_index().weight_tree_nodes(), 0u) << "no treap to rebuild";

  for (EdgeIndex e = 0; e < topology.num_edges(); ++e) {
    for (const double threshold : {0.75, 2.0, 6.0}) {
      const ImpactSplit want = asked.impact_split(e, threshold);
      const ImpactSplit got = quiet.impact_split(e, threshold);
      EXPECT_EQ(got.heavier, want.heavier) << "edge " << e;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lighter_weight),
                std::bit_cast<std::uint64_t>(want.lighter_weight))
          << "edge " << e;
    }
  }
  EXPECT_TRUE(quiet.impact_index().weight_ready());
  EXPECT_EQ(quiet.impact_index().live_weight_keys(), asked.impact_index().live_weight_keys());
}

TEST(ImpactIndexLifecycle, CountersDrainToZero) {
  for (const char* name : {"alg", "jsq", "fifo"}) {
    const Instance instance = testing::make_varied_instance(103);
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    Engine engine(instance, *dispatcher, *scheduler, {});
    engine.run();
    const ImpactIndex& index = engine.impact_index();
    for (EdgeIndex e = 0; e < instance.topology().num_edges(); ++e) {
      EXPECT_EQ(index.edge_load(e), 0) << name << " edge " << e;
    }
  }
}

// --------------------------------------------------------------------------
// 3. Schedule goldens: all 12 registry policies, captured pre-index

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t schedule_hash(const std::vector<PacketOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PacketOutcome& o : outcomes) {
    h = mix64(h, o.route.use_fixed ? 1u : 0u);
    h = mix64(h, static_cast<std::uint64_t>(o.route.use_fixed ? -1 : o.route.edge));
    h = mix64(h, static_cast<std::uint64_t>(o.completion));
    h = mix64(h, o.chunk_transmit_steps.size());
    for (Time t : o.chunk_transmit_steps) h = mix64(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

struct ZooGolden {
  const char* shape;
  const char* policy;
  double cost;
  Time makespan;
  std::uint64_t hash;
};

// Captured on pre-index main (PR 5 head) with the identical zoo_cases /
// zoo_instance code above. The index must not flip a single decision.
constexpr ZooGolden kZooGoldens[] = {
    {"crossbar6", "alg", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "maxweight", 1280, 34, 0xb77adf6f2b8d70e4ULL},
    {"crossbar6", "islip", 2079, 35, 0x88c35e53096bfe00ULL},
    {"crossbar6", "rotor", 5334, 63, 0xfec60f08de77a9d0ULL},
    {"crossbar6", "random", 1900, 34, 0x931e86ca6e3a0062ULL},
    {"crossbar6", "fifo", 1810, 33, 0xc299fb7a27dbcefcULL},
    {"crossbar6", "impact", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "random-dispatch", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "round-robin", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "jsq", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "min-delay", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "direct-only", 1339, 33, 0x2b059e493820232cULL},
    {"two_tier8x2", "alg", 4346.8333333333339, 72, 0x60663b809d9a9907ULL},
    {"two_tier8x2", "maxweight", 6321.6666666666661, 92, 0x6c011c3729d76c2eULL},
    {"two_tier8x2", "islip", 9736.3333333333339, 93, 0x4d6eff3c969ecb13ULL},
    {"two_tier8x2", "rotor", 115884.99999999999, 985, 0xcdd9dc546acded1eULL},
    {"two_tier8x2", "random", 10151, 92, 0xbbe2e23a5231289fULL},
    {"two_tier8x2", "fifo", 9751, 92, 0x803d06a7363a5022ULL},
    {"two_tier8x2", "impact", 4346.8333333333339, 72, 0x60663b809d9a9907ULL},
    {"two_tier8x2", "random-dispatch", 7039.5, 110, 0xf8db88a254fffdebULL},
    {"two_tier8x2", "round-robin", 6159.6666666666661, 92, 0xb39744b330e2c42cULL},
    {"two_tier8x2", "jsq", 6416.8333333333339, 92, 0xa587a15dede17af3ULL},
    {"two_tier8x2", "min-delay", 8148.1666666666661, 115, 0x1154a25965cb5ea4ULL},
    {"two_tier8x2", "direct-only", 15613.500000000002, 178, 0xbddbcb4d04e6d1d7ULL},
    {"hybrid6x2", "alg", 2962, 37, 0x3da31161e8671838ULL},
    {"hybrid6x2", "maxweight", 8911.5, 80, 0x13b58b99163f6605ULL},
    {"hybrid6x2", "islip", 17151, 80, 0x52ea1e04ad5f9bd9ULL},
    {"hybrid6x2", "rotor", 54588, 229, 0xef809f2bb66013ccULL},
    {"hybrid6x2", "random", 17110.5, 80, 0xa2cda0f76a924ff5ULL},
    {"hybrid6x2", "fifo", 17132.5, 80, 0xc365ec5f0dac759fULL},
    {"hybrid6x2", "impact", 2962, 37, 0x3da31161e8671838ULL},
    {"hybrid6x2", "random-dispatch", 9569.5, 84, 0xfbd4dacb22a993deULL},
    {"hybrid6x2", "round-robin", 8911.5, 84, 0xaf9ba44c89992b83ULL},
    {"hybrid6x2", "jsq", 8911.5, 80, 0x13b58b99163f6605ULL},
    {"hybrid6x2", "min-delay", 12363.5, 116, 0xa455878950165301ULL},
    {"hybrid6x2", "direct-only", 3948, 34, 0x0a48d037b4d131e8ULL},
    {"expander10d3", "alg", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "maxweight", 3750, 36, 0x5f8e46eb15384d5bULL},
    {"expander10d3", "islip", 3752, 36, 0xf716a01d864f4b98ULL},
    {"expander10d3", "rotor", 3956, 36, 0x8f9901048d544d2dULL},
    {"expander10d3", "random", 3751, 36, 0x57fa3246c4a1489bULL},
    {"expander10d3", "fifo", 3752, 36, 0xf716a01d864f4b98ULL},
    {"expander10d3", "impact", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "random-dispatch", 3749, 36, 0xfe63af9467f26337ULL},
    {"expander10d3", "round-robin", 3751, 36, 0x5418dbe8cfb8a562ULL},
    {"expander10d3", "jsq", 3750, 36, 0x5f8e46eb15384d5bULL},
    {"expander10d3", "min-delay", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "direct-only", 5264, 36, 0x849b5a6b01f7e0c4ULL},
};

TEST(ImpactIndexGoldens, AllRegistryPoliciesUnchanged) {
  const std::vector<ZooCase> cases = zoo_cases();
  const std::vector<std::string> names = policy_names();
  ASSERT_EQ(names.size(), 12u);
  std::size_t row = 0;
  for (const ZooCase& shape : cases) {
    const Instance instance = zoo_instance(shape);
    for (const std::string& name : names) {
      ASSERT_LT(row, std::size(kZooGoldens));
      const ZooGolden& want = kZooGoldens[row++];
      ASSERT_STREQ(want.shape, shape.name);
      ASSERT_STREQ(want.policy, name.c_str());
      const PolicyFactory policy = named_policy(name);
      auto dispatcher = policy.dispatcher();
      auto scheduler = policy.scheduler(instance.topology());
      const RunResult run = simulate(instance, *dispatcher, *scheduler, {});
      EXPECT_NEAR(run.total_cost, want.cost, 1e-9 * (1.0 + want.cost))
          << shape.name << "/" << name;
      EXPECT_EQ(run.makespan, want.makespan) << shape.name << "/" << name;
      EXPECT_EQ(schedule_hash(run.outcomes), want.hash) << shape.name << "/" << name;
    }
  }
  EXPECT_EQ(row, std::size(kZooGoldens));
}

}  // namespace
}  // namespace rdcn
