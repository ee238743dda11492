// EXP-P1 -- engineering scalability of the algorithm itself: end-to-end
// simulation time vs network size, per-step stable-matching and MaxWeight
// selection cost vs candidate depth, and the LP / brute-force /
// dual-witness reference costs on small inputs.
//
// Each case first runs once to size its repetitions: a repetition runs the
// case enough times to last about 20 ms, and the row reports the median
// over 5 repetitions of wall_ms per run.
// total_cost carries the case's own result (schedule cost, matching size,
// LP bound, optimum, dual sum), so it doubles as a determinism record.
// Prints BenchReport rows only, the run-metadata line first; items_per_s
// counts packets (end to end) or candidates (select steps) per second.
// Takes no arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "baseline/schedulers.hpp"
#include "common.hpp"
#include "core/alg.hpp"
#include "core/dual_witness.hpp"
#include "lp/paper_lps.hpp"
#include "lp/simplex.hpp"
#include "opt/brute_force.hpp"
#include "util/rng.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::bench;

ScenarioRunner scaled_runner(NodeIndex racks, std::size_t packets) {
  // Bespoke instance hook reproducing the historical generation exactly,
  // so throughput numbers stay comparable along BENCH_trajectory.json.
  ScenarioSpec spec;
  spec.name = "scalability";
  spec.base_seed = 5;
  spec.make_instance = [racks, packets](std::uint64_t seed) {
    Rng rng(seed);
    TwoTierConfig net;
    net.racks = racks;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.4;
    net.max_edge_delay = 2;
    const Topology topology = build_two_tier(net, rng);
    WorkloadConfig traffic;
    traffic.num_packets = packets;
    traffic.arrival_rate = static_cast<double>(racks) / 2.0;
    traffic.skew = PairSkew::Zipf;
    traffic.weights = WeightDist::UniformInt;
    traffic.seed = seed;
    return generate_workload(topology, traffic);
  };
  return ScenarioRunner(std::move(spec));
}

Instance scaled_instance(NodeIndex racks, std::size_t packets, std::uint64_t seed = 5) {
  return scaled_runner(racks, packets).instance(seed);
}

/// Random candidates at a given depth, pre-sorted by chunk priority (the
/// engine's SchedulePolicy contract).
std::vector<Candidate> step_candidates(const Topology& topology, std::size_t depth) {
  Rng rng(9);
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < depth; ++i) {
    Candidate c;
    c.packet = static_cast<PacketIndex>(i);
    c.edge = static_cast<EdgeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology.num_edges())));
    c.transmitter = topology.edge(c.edge).transmitter;
    c.receiver = topology.edge(c.edge).receiver;
    c.chunk_weight = rng.next_double(0.1, 10.0);
    c.arrival = 1;
    c.remaining = 1;
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(), chunk_higher_priority);
  return candidates;
}

struct Timing {
  double result = 0.0;   ///< the case's own output (last run)
  double wall_ms = 0.0;  ///< median over repetitions of ms per run
};

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

constexpr double kTargetMs = 20.0;  ///< wall time of one repetition
constexpr int kRepetitions = 5;

Timing measure(const std::function<double()>& run) {
  Timing timing;
  auto start = std::chrono::steady_clock::now();
  timing.result = run();
  const double once_ms = std::max(elapsed_ms(start), 1e-6);
  const auto runs = static_cast<long>(std::max(1.0, kTargetMs / once_ms));
  std::vector<double> per_run;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    start = std::chrono::steady_clock::now();
    for (long i = 0; i < runs; ++i) timing.result = run();
    per_run.push_back(elapsed_ms(start) / static_cast<double>(runs));
  }
  std::sort(per_run.begin(), per_run.end());
  timing.wall_ms = per_run[per_run.size() / 2];
  return timing;
}

/// Schedulers' per-step select over a fixed candidate list on a 32-port
/// crossbar: the isolated round cost at a given pending depth.
template <typename Scheduler>
Timing measure_select(std::size_t depth) {
  const Topology topology = build_crossbar(32);
  const std::vector<Candidate> candidates = step_candidates(topology, depth);
  Instance instance(topology, {});
  ImpactDispatcher dispatcher;
  Scheduler scheduler;
  Engine engine(instance, dispatcher, scheduler, {});
  Selection selection;
  const auto select_once = [&] {
    selection.clear();
    scheduler.select(engine, 1, candidates, selection);
    return static_cast<double>(selection.size());
  };
  return measure(select_once);
}

/// One row: the case's result as total_cost, its median ms per run as
/// wall_ms, and `items` per run as items_per_s (when nonzero).
BenchReport::Row& record(BenchReport& report, const char* name, const Timing& timing,
                         double items = 0.0) {
  BenchReport::Row& row = report.add(name, timing.result, timing.wall_ms);
  if (items > 0.0) row.value("items_per_s", items / (timing.wall_ms / 1e3));
  return row;
}

}  // namespace

int main(int argc, char**) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: bench_scalability\n");
    return 2;
  }

  BenchReport report("scalability");
  stamp_meta(report);

  const std::vector<std::pair<NodeIndex, std::size_t>> sizes = {
      {8, 200}, {16, 500}, {32, 1000}, {64, 2000}};
  for (const auto& [racks, packets] : sizes) {
    const ScenarioRunner runner = scaled_runner(racks, packets);
    const Instance instance = runner.instance(5);
    const PolicyFactory policy = alg_policy();
    const EngineOptions options = runner.spec().engine;
    const auto simulate_once = [&] {
      auto dispatcher = policy.dispatcher();
      auto scheduler = policy.scheduler(instance.topology());
      return simulate(instance, *dispatcher, *scheduler, options).total_cost;
    };
    record(report, "alg_end_to_end", measure(simulate_once),
           static_cast<double>(packets))
        .param("racks", static_cast<std::int64_t>(racks))
        .param("packets", static_cast<std::int64_t>(packets));
  }
  for (const std::size_t depth : {16, 64, 256, 1024}) {
    const Timing timing = measure_select<StableMatchingScheduler>(depth);
    record(report, "stable_matching_step", timing, static_cast<double>(depth))
        .param("depth", static_cast<std::int64_t>(depth));
  }
  for (const std::size_t depth : {16, 64, 256}) {
    const Timing timing = measure_select<MaxWeightScheduler>(depth);
    record(report, "maxweight_step", timing, static_cast<double>(depth))
        .param("depth", static_cast<std::int64_t>(depth));
  }
  for (const std::size_t packets : {3, 5, 7}) {
    const Instance instance = scaled_instance(3, packets, 11);
    const auto solve = [&] { return lp_opt_lower_bound(instance, 1.0); };
    record(report, "primal_lp_solve", measure(solve))
        .param("packets", static_cast<std::int64_t>(packets));
  }
  for (const std::size_t packets : {4, 6, 8}) {
    const Instance instance = scaled_instance(3, packets, 13);
    const auto search = [&] {
      const auto opt = brute_force_opt(instance);
      return opt ? opt->cost : -1.0;  // -1: search limits hit
    };
    record(report, "brute_force_opt", measure(search))
        .param("packets", static_cast<std::int64_t>(packets));
  }
  for (const std::size_t packets : {200, 1000}) {
    const Instance instance = scaled_instance(16, packets);
    const RunResult run = run_alg(instance);
    const auto build = [&] { return build_dual_witness(instance, run).sum_alpha; };
    record(report, "dual_witness_build", measure(build))
        .param("packets", static_cast<std::int64_t>(packets));
  }

  for (const std::string& line : report.json_lines()) std::printf("%s\n", line.c_str());
  return 0;
}
