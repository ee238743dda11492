// EXP-P2 -- scheduling-round hot-path microbench (ISSUE 5). For every
// registry scheduler across topology-zoo shapes, inject a contended burst
// into a streaming engine and time the pure drain: no arrivals, so every
// measured step is exactly one scheduling round plus retirement -- the
// steady-state inner loop the Selection API and active-endpoint
// compression target. Each row is the MEDIAN of N timed repetitions
// (quick 3, full 5) -- medians resist scheduler-noise outliers where
// best-of rewards them -- and the repetitions must agree on
// total_cost/rounds bit-for-bit (determinism cross-check; a mismatch
// exits 3). Emits BenchReport JSON lines (ns_per_round, rounds,
// total_cost). CI's perf gate runs --quick --json for the PR's base and
// head side by side through tools/ab_bench.py; rows recorded along the
// way are in BENCH_trajectory.json.
//
// Besides the 400-packet uniform bursts, a deep-backlog shape (pod8_hot)
// drains a 6000-packet burst with half of it on one rack pair of the
// 8-rack pod, for alg and maxweight: about 12k chunks pending, nearly all
// behind an edge head -- the regime where a round that scanned the whole
// backlog would cost O(backlog) instead of O(edges).
//
//   bench_hotpath [--json] [--quick] [--phases] [--no-meta] [--out PATH]
//
//   --json     print only the JSON lines
//   --quick    fewer repetitions, crossbar and deep-backlog shapes only
//              (the CI perf-gate subset; same bursts, so its rows share
//              keys with a full run's)
//   --phases   additionally run probe-enabled drains and emit one row per
//              round phase (params gain "phase"; metric phase_ns_per_round
//              = phase self-time / rounds). The rows above stay
//              probe-OFF. The probed drain must reproduce the probe-off
//              total_cost/rounds bit-for-bit, or the bench exits 3 (the
//              observability layer may not perturb the schedule).
//   --no-meta  suppress the BenchReport run-metadata line
//   --out PATH also write the JSON lines to PATH, atomically

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "sim/probe.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::bench;

struct Shape {
  const char* name;
  Topology topology;
  std::size_t hot_share_percent = 0;  ///< of the burst on rack pair (0, 1)
  std::size_t packets = 400;
  std::vector<const char*> policies = {"alg",   "maxweight", "islip",
                                       "rotor", "random",    "fifo"};
};

Shape deep_backlog_shape() {
  TwoTierConfig net;
  net.racks = 8;
  net.max_edge_delay = 3;
  Rng rng(7);
  return {"pod8_hot", build_two_tier(net, rng), 50, 6000, {"alg", "maxweight"}};
}

std::vector<Shape> zoo_shapes(bool quick) {
  std::vector<Shape> shapes;
  shapes.push_back({"crossbar16", build_crossbar(16)});
  if (quick) {
    shapes.push_back(deep_backlog_shape());
    return shapes;
  }
  {
    TwoTierConfig net;
    net.racks = 12;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.5;
    net.max_edge_delay = 3;
    Rng rng(7);
    shapes.push_back({"two_tier12x2", build_two_tier(net, rng)});
  }
  {
    ExpanderConfig net;
    net.racks = 16;
    net.degree = 3;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.max_edge_delay = 2;
    Rng rng(7);
    shapes.push_back({"expander16d3", build_expander(net, rng)});
  }
  shapes.push_back(deep_backlog_shape());
  return shapes;
}

/// `count` packets at step 1. Packet i goes to rack pair (0, 1) when
/// i % 100 < hot_share_percent, and to a uniform routable pair otherwise.
std::vector<Packet> burst(const Topology& topology, std::size_t count, std::uint64_t seed,
                          std::size_t hot_share_percent = 0) {
  Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = rng.next_double(0.5, 8.0);
    if (packets.size() % 100 < hot_share_percent) {
      p.source = 0;
      p.destination = 1;
    } else {
      p.source = static_cast<NodeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_sources())));
      p.destination = static_cast<NodeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_destinations())));
    }
    if (!topology.routable(p.source, p.destination)) continue;
    packets.push_back(p);
  }
  return packets;
}

struct DrainResult {
  double ns_per_round = 0.0;
  double wall_ms = 0.0;
  std::int64_t rounds = 0;
  double total_cost = 0.0;
  ProbeReport probe;  ///< populated only by probed drains
};

DrainResult drain_once(const Topology& topology, const PolicyFactory& policy,
                       const std::vector<Packet>& packets, bool probed = false) {
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.probe.enabled = probed;  // aggregates only: no event ring
  Engine engine(topology, *dispatcher, *scheduler, options, [](RetiredPacket&&) {});
  const Time arrival = 1;
  engine.begin_step(&arrival);
  for (const Packet& p : packets) engine.inject(p);
  engine.finish_step();

  const auto start = std::chrono::steady_clock::now();
  std::int64_t rounds = 0;
  while (engine.busy()) {
    engine.begin_step(nullptr);
    engine.finish_step();
    ++rounds;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DrainResult result;
  result.rounds = rounds;
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count();
  result.ns_per_round =
      rounds > 0 ? std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(elapsed)
                           .count() /
                       static_cast<double>(rounds)
                 : 0.0;
  result.total_cost = engine.aggregates().total_cost;
  if (engine.probe() != nullptr) result.probe = engine.probe()->report();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  bool quick = false;
  bool phases = false;
  bool meta = true;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--phases") == 0) {
      phases = true;
    } else if (std::strcmp(argv[i], "--no-meta") == 0) {
      meta = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--json] [--quick] [--phases] [--no-meta] "
                   "[--out PATH]\n");
      return 2;
    }
  }
  // --quick trims shapes and repetitions but keeps the burst sizes, so its
  // rows carry the same (bench, name, params) keys as a full run's.
  const int repetitions = quick ? 3 : 5;  // median-of-N; N >= 3 even in CI

  BenchReport report("hotpath");
  if (meta) stamp_meta(report);
  Table table({"shape", "policy", "rounds", "ns/round", "total cost"});
  Table phase_table({"shape", "policy", "phase", "ns/round", "share"});
  for (const Shape& shape : zoo_shapes(quick)) {
    const std::size_t packets = shape.packets;
    const std::vector<Packet> load =
        burst(shape.topology, packets, 11, shape.hot_share_percent);
    for (const char* name : shape.policies) {
      const PolicyFactory policy = named_policy(name);
      std::vector<DrainResult> reps;
      reps.reserve(static_cast<std::size_t>(repetitions));
      for (int rep = 0; rep < repetitions; ++rep) {
        reps.push_back(drain_once(shape.topology, policy, load));
        // Determinism cross-check: identical engine state per repetition,
        // so schedule-derived quantities must agree bit-for-bit.
        if (reps.back().total_cost != reps.front().total_cost ||
            reps.back().rounds != reps.front().rounds) {
          std::fprintf(stderr, "bench_hotpath: %s/%s nondeterministic across reps\n",
                       shape.name, name);
          return 3;
        }
      }
      std::sort(reps.begin(), reps.end(), [](const DrainResult& a, const DrainResult& b) {
        return a.ns_per_round < b.ns_per_round;
      });
      const DrainResult& median = reps[reps.size() / 2];
      report.add(name, median.total_cost, median.wall_ms)
          .param("shape", std::string(shape.name))
          .param("packets", static_cast<std::int64_t>(packets))
          .value("ns_per_round", median.ns_per_round)
          .value("rounds", static_cast<double>(median.rounds));
      table.add_row({shape.name, name, Table::fmt(median.rounds),
                     Table::fmt(median.ns_per_round, 1), Table::fmt(median.total_cost, 1)});

      if (!phases) continue;
      // Separate probe-ON drains: the timed rows above stay probe-OFF, and
      // the probed run doubles as a schedule-invariance check (identical
      // total_cost/rounds, or the probe perturbed the engine).
      std::vector<DrainResult> probed;
      probed.reserve(static_cast<std::size_t>(repetitions));
      for (int rep = 0; rep < repetitions; ++rep) {
        probed.push_back(drain_once(shape.topology, policy, load, /*probed=*/true));
        if (probed.back().total_cost != median.total_cost ||
            probed.back().rounds != median.rounds) {
          std::fprintf(stderr,
                       "bench_hotpath: %s/%s probe-on drain diverged from probe-off\n",
                       shape.name, name);
          return 3;
        }
      }
      std::sort(probed.begin(), probed.end(),
                [](const DrainResult& a, const DrainResult& b) {
                  return a.ns_per_round < b.ns_per_round;
                });
      const DrainResult& probed_median = probed[probed.size() / 2];
      const double rounds_d = static_cast<double>(probed_median.rounds);
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        const char* phase_name = to_string(static_cast<Phase>(p));
        const double self_ns =
            static_cast<double>(probed_median.probe.phase_self_ns[p]);
        const double per_round = rounds_d > 0.0 ? self_ns / rounds_d : 0.0;
        const double share = probed_median.probe.wall_ns > 0
                                 ? self_ns / static_cast<double>(probed_median.probe.wall_ns)
                                 : 0.0;
        report.add(name, probed_median.total_cost, probed_median.wall_ms)
            .param("shape", std::string(shape.name))
            .param("packets", static_cast<std::int64_t>(packets))
            .param("phase", std::string(phase_name))
            .value("phase_ns_per_round", per_round)
            .value("phase_share", share);
        phase_table.add_row({shape.name, name, phase_name, Table::fmt(per_round, 1),
                             Table::fmt(share * 100.0, 1) + "%"});
      }
    }
  }
  if (json_only) {
    for (const std::string& line : report.json_lines()) std::printf("%s\n", line.c_str());
  } else {
    table.print("EXP-P2: scheduling-round drain cost (median of repetitions)");
    if (phases) {
      phase_table.print("EXP-P2: per-phase self time (probe-on drains, median rep)");
    }
    report.print();
  }
  // --out is written atomically (write-temp-fsync-rename): a runner killed
  // mid-bench never leaves a torn file.
  if (!out_path.empty()) report.write_json(out_path);
  return 0;
}
