#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "run/batch.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace rdcnbench {
namespace {

using rdcn::Time;

/// Span and counter names, interned once.
struct Names {
  NameId rep = intern("run.rep");
  NameId setup = intern("run.setup");
  NameId step = intern("sim.step");
  NameId topology = intern("net.topology_build");
  NameId calibrate = intern("traffic.calibrate");
  NameId make_source = intern("traffic.make_source");
  NameId next = intern("traffic.next");
  NameId policy_build = intern("policy.build");
  NameId engine_build = intern("sim.engine_build");
  NameId begin_step = intern("sim.begin_step");
  NameId inject = intern("sim.inject");
  NameId finish_step = intern("sim.finish_step");
  NameId engine_run = intern("sim.run");
  NameId instance = intern("workload.instance");
  NameId generate = intern("workload.generate");
  NameId sink = intern("sink");
  NameId sink_packets = intern("sink.packets");
};

const Names& names() {
  static const Names instance;
  return instance;
}

rdcn::TopologySpec pod(rdcn::NodeIndex racks, double density, rdcn::Delay max_edge_delay) {
  rdcn::TopologySpec spec;
  spec.kind = rdcn::TopologySpec::Kind::TwoTier;
  spec.two_tier.racks = racks;
  spec.two_tier.lasers_per_rack = 2;
  spec.two_tier.photodetectors_per_rack = 2;
  spec.two_tier.density = density;
  spec.two_tier.max_edge_delay = max_edge_delay;
  return spec;
}

Workload stream_workload(std::string name, std::vector<std::string> policies,
                         rdcn::PairSkew skew, double rho, std::size_t warmup,
                         std::size_t measure) {
  StreamShape shape;
  shape.topology = pod(8, 1.0, 1);
  shape.traffic.process = rdcn::ArrivalProcess::Poisson;
  shape.traffic.rho = rho;
  shape.traffic.shape.skew = skew;
  shape.traffic.shape.weights = rdcn::WeightDist::UniformInt;
  shape.traffic.shape.weight_max = 10;
  shape.warmup = warmup;
  shape.measure = measure;
  Workload workload;
  workload.name = std::move(name);
  workload.policies = std::move(policies);
  workload.stream = shape;
  return workload;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> all;
  // Shallow queues: the backlog stays near 10, so a step costs per-packet
  // work (traffic draw, impact dispatch, inject, retire), not round work.
  all.push_back(stream_workload("stream_shallow", {"alg"}, rdcn::PairSkew::Uniform, 0.5,
                                10000, 190000));
  // Congestion: half the traffic targets one hot pair, which can move at
  // most 2 chunks a step against ~6 offered, so the backlog grows past 20k
  // chunks until the step cap and a round's O(pending) merge and select
  // dominate. Every choice of hot pair is isomorphic on this symmetric pod,
  // so the depth -- unlike under Zipf, whose seed-drawn rank order moved
  // the mean backlog between 11k and 18k -- does not depend on the seed.
  all.push_back(stream_workload("stream_congested", {"alg", "maxweight"},
                                rdcn::PairSkew::Hotspot, 0.8, 1000, 4000));
  // The batch engine mode: instance generation, Engine::run with its
  // preallocated outcome arrays, and the run/ pool fan-out, at the
  // 64-rack / 2000-packet shape of the historical end-to-end bench. Zipf
  // draws each instance's hot pairs from its seed, so one instance's
  // step time differs from the next by up to 3x; 250 repetitions per
  // policy make a round's 1,000 samples, and so its step percentiles,
  // close to the same from one workload seed to the next.
  BatchShape batch;
  batch.topology = pod(64, 0.4, 2);
  batch.workload.num_packets = 2000;
  batch.workload.arrival_rate = 32.0;
  batch.workload.skew = rdcn::PairSkew::Zipf;
  batch.workload.weights = rdcn::WeightDist::UniformInt;
  batch.repetitions = 250;
  batch.threads = 2;
  Workload grid;
  grid.name = "batch_grid";
  grid.policies = {"alg", "maxweight", "islip", "jsq"};
  grid.batch = batch;
  all.push_back(std::move(grid));
  return all;
}

/// Repetition seeds of a batch round: base, base + 1, ... -- disjoint
/// between workload seeds as long as repetitions < 1000.
std::uint64_t batch_base_seed(std::uint64_t seed) { return seed * 1000 + 1; }

std::int64_t percentile_or(const rdcn::LatencyHistogram& histogram, double q) {
  return histogram.empty() ? -1 : histogram.percentile(q);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("conservation check failed: " + what);
}

}  // namespace

rdcn::json::Value to_json(const Fingerprint& fingerprint) {
  char bits[32];
  std::snprintf(bits, sizeof(bits), "0x%016llx",
                static_cast<unsigned long long>(fingerprint.cost_bits));
  return rdcn::json::Object{
      {"served", static_cast<std::int64_t>(fingerprint.served)},
      {"steps", static_cast<std::int64_t>(fingerprint.steps)},
      {"total_cost", std::bit_cast<double>(fingerprint.cost_bits)},
      {"total_cost_bits", std::string(bits)},
      {"latency_p50", fingerprint.latency_p50},
      {"latency_p99", fingerprint.latency_p99},
      {"truncated", fingerprint.truncated},
  };
}

Fingerprint fingerprint_from_json(const rdcn::json::Value& value) {
  const auto field = [&](const char* key) -> const rdcn::json::Value& {
    const rdcn::json::Value* found = value.find(key);
    if (found == nullptr) throw std::runtime_error(std::string("fingerprint lacks ") + key);
    return *found;
  };
  Fingerprint fingerprint;
  fingerprint.served = static_cast<std::uint64_t>(field("served").as_integer());
  fingerprint.steps = field("steps").as_integer();
  fingerprint.cost_bits = std::stoull(field("total_cost_bits").as_string(), nullptr, 16);
  fingerprint.latency_p50 = field("latency_p50").as_integer();
  fingerprint.latency_p99 = field("latency_p99").as_integer();
  fingerprint.truncated = field("truncated").as_bool();
  return fingerprint;
}

std::string describe(const Fingerprint& fingerprint) {
  return rdcn::json::dump(to_json(fingerprint));
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"pkts_per_s", "packets/s"}, {"step_us_p50", "us"}, {"step_us_p99", "us"},
      {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> all = {
        {"net.topology_build_us", "us"}, {"traffic.calibrate_us", "us"},
        {"traffic.next_ns", "ns"},       {"workload.instance_ms", "ms"},
        {"sim.begin_step_ns", "ns"},     {"sim.inject_self_ns", "ns"},
        {"sim.round_self_ns", "ns"},     {"sim.pending_mean", "count"},
        {"sim.pending_peak", "count"},   {"sim.in_flight_mean", "count"},
    };
    for (const char* policy : {"alg", "maxweight", "islip", "jsq"}) {
      const std::string p(policy);
      all.push_back({"dispatch." + p + ".ns_per_call", "ns"});
      all.push_back({"select." + p + ".ns_per_round", "ns"});
      all.push_back({"select." + p + ".candidates_per_round", "count"});
      all.push_back({"select." + p + ".fill", "ratio"});
    }
    for (MetricSpec spec : std::vector<MetricSpec>{{"sink.ns_per_pkt", "ns"},
                                                   {"run.parallel_eff", "ratio"},
                                                   {"run.grid_wall_s", "s"},
                                                   {"run.rep_busy_s", "s"},
                                                   {"trace.residual_share", "ratio"},
                                                   {"trace.overhead", "ratio"}}) {
      all.push_back(std::move(spec));
    }
    return all;
  }();
  return metrics;
}

// --- stream -----------------------------------------------------------------

StreamRep run_stream_rep(const StreamShape& shape, const rdcn::PolicyFactory& policy,
                         std::uint64_t seed, bool audit, Tracer* tracer,
                         std::vector<std::uint32_t>* step_ns) {
  const Names& n = names();
  StreamRep rep;
  if (tracer != nullptr) {
    tracer->begin_group();
    tracer->open(n.rep);
  }

  // Set-up: everything before the first simulated step.
  const std::int64_t setup_begin = now_ns();
  if (tracer != nullptr) tracer->open(n.setup);
  rdcn::Topology topology;
  {
    const Scope scope(tracer, n.topology);
    topology = rdcn::make_topology(shape.topology, seed);
  }
  rdcn::TrafficConfig traffic = shape.traffic;
  traffic.shape.seed = seed;
  double rate = 0.0;
  {
    const Scope scope(tracer, n.calibrate);
    rate = rdcn::calibrate_rate(topology, traffic);
  }
  std::unique_ptr<rdcn::TrafficSource> source;
  {
    const Scope scope(tracer, n.make_source);
    source = rdcn::make_source(topology, traffic);
  }
  const auto total = static_cast<double>(shape.warmup + shape.measure);
  const Time max_steps =
      static_cast<Time>(shape.step_cap_factor * total / std::max(rate, 1e-9)) + 1024;

  const auto measure_begin = static_cast<rdcn::PacketIndex>(shape.warmup);
  const auto measure_end = static_cast<rdcn::PacketIndex>(shape.warmup + shape.measure);
  rdcn::LatencyHistogram latency;
  std::uint64_t served = 0;
  std::uint64_t measured = 0;
  std::uint64_t dropped = 0;
  Time min_latency = std::numeric_limits<Time>::max();
  const auto sink = [&](rdcn::RetiredPacket&& retired) {
    const Scope scope(tracer, n.sink);
    if (retired.outcome.dropped) {
      ++dropped;
      return;
    }
    ++served;
    const Time packet_latency = retired.outcome.completion - retired.arrival;
    min_latency = std::min(min_latency, packet_latency);
    if (retired.id >= measure_begin && retired.id < measure_end) {
      ++measured;
      latency.add(packet_latency);
    }
  };

  std::unique_ptr<rdcn::DispatchPolicy> dispatcher;
  std::unique_ptr<rdcn::SchedulePolicy> scheduler;
  {
    const Scope scope(tracer, n.policy_build);
    dispatcher = policy.dispatcher();
    scheduler = policy.scheduler(topology);
  }
  rdcn::EngineOptions options;
  options.audit = audit;
  std::optional<rdcn::Engine> engine;
  {
    const Scope scope(tracer, n.engine_build);
    engine.emplace(topology, *dispatcher, *scheduler, options, sink);
  }
  if (tracer != nullptr) tracer->close(n.setup);
  const std::int64_t sim_begin = now_ns();
  rep.setup_s = static_cast<double>(sim_begin - setup_begin) * 1e-9;

  // The open loop of StreamRunner::run_repetition (unstaged, generative):
  // same stop rule, same step cap, same packets in the same order. A
  // step's arrivals are pulled from the source before they are injected
  // so the step's timed calls do not include the traffic draw.
  std::optional<rdcn::Packet> pending;
  const auto pull = [&] {
    const Scope scope(tracer, n.next);
    pending = source->next();
  };
  std::vector<rdcn::Packet> arrivals;
  std::uint64_t offered = 0;
  pull();
  while (true) {
    if (measured >= shape.measure) break;
    if (!pending && !engine->busy()) break;
    if (rep.fingerprint.steps >= max_steps) {
      rep.fingerprint.truncated = true;
      break;
    }
    if (tracer != nullptr) {
      tracer->begin_group();
      tracer->open(n.step);
    }
    const std::int64_t t0 = now_ns();
    {
      const Scope scope(tracer, n.begin_step);
      engine->begin_step(pending ? &pending->arrival : nullptr);
    }
    const std::int64_t t1 = now_ns();
    ++rep.fingerprint.steps;
    arrivals.clear();
    while (pending && pending->arrival == engine->now()) {
      arrivals.push_back(*pending);
      pull();
    }
    const std::int64_t t2 = now_ns();
    for (const rdcn::Packet& packet : arrivals) {
      const Scope scope(tracer, n.inject);
      engine->inject(packet);
    }
    {
      const Scope scope(tracer, n.finish_step);
      engine->finish_step();
    }
    const std::int64_t t3 = now_ns();
    if (tracer != nullptr) tracer->close(n.step);
    offered += arrivals.size();
    if (step_ns != nullptr) {
      step_ns->push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>((t1 - t0) + (t3 - t2), UINT32_MAX)));
    }
    const std::uint64_t depth = engine->pending_candidates().size();
    rep.pending_sum += depth;
    rep.pending_peak = std::max(rep.pending_peak, depth);
    rep.in_flight_sum += engine->in_flight();
  }
  rep.sim_s = static_cast<double>(now_ns() - sim_begin) * 1e-9;
  if (tracer != nullptr) {
    tracer->close(n.rep);
    tracer->count(n.sink_packets, served + dropped);
  }

  require(engine->packets_dispatched() == offered, "dispatched != offered");
  require(engine->packets_retired() == served + dropped, "retired != sink deliveries");
  require(engine->in_flight() == offered - served - dropped, "in_flight != offered - retired");
  require(dropped == 0, "a packet was dropped without failure injection");
  require(served == 0 || min_latency >= 1, "a packet completed in its arrival step");
  require(rep.fingerprint.truncated || measured == shape.measure,
          "the run stopped before its measured packets retired");

  rep.fingerprint.served = served;
  rep.fingerprint.cost_bits = std::bit_cast<std::uint64_t>(engine->aggregates().total_cost);
  rep.fingerprint.latency_p50 = percentile_or(latency, 50.0);
  rep.fingerprint.latency_p99 = percentile_or(latency, 99.0);
  return rep;
}

// --- batch ------------------------------------------------------------------

namespace {

/// One cell's latency fold; repetitions of a cell land from any worker.
struct CellFold {
  std::mutex mutex;  ///< guards the members below
  rdcn::LatencyHistogram latency;
  std::uint64_t served = 0;
  Time min_latency = std::numeric_limits<Time>::max();
};

/// Folds one repetition's outcomes (the benchmark's sink in batch mode).
double fold_outcomes(CellFold& fold, const rdcn::Instance& instance,
                     const rdcn::RunResult& run) {
  rdcn::LatencyHistogram latency;
  std::uint64_t served = 0;
  Time min_latency = std::numeric_limits<Time>::max();
  const std::vector<rdcn::Packet>& packets = instance.packets();
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    if (run.outcomes[i].dropped) continue;
    ++served;
    const Time packet_latency = run.outcomes[i].completion - packets.at(i).arrival;
    min_latency = std::min(min_latency, packet_latency);
    latency.add(packet_latency);
  }
  const std::lock_guard<std::mutex> lock(fold.mutex);
  fold.latency.merge(latency);
  fold.served += served;
  fold.min_latency = std::min(fold.min_latency, min_latency);
  return run.total_cost;
}

/// Traced batch policy. ScenarioRunner's repetition calls, on one worker
/// and in this order: make_instance, policy.dispatcher(),
/// policy.scheduler(), simulate, the RepMetric. The hook opens the
/// repetition's "run.rep" span, scheduler() opens "sim.run" as its last
/// act, and the metric closes both; Tracer::close reports any other order.
rdcn::PolicyFactory traced_batch_policy(const rdcn::PolicyFactory& policy) {
  rdcn::PolicyFactory traced = timed_policy(policy);
  traced.scheduler = [make = traced.scheduler](const rdcn::Topology& topology) {
    auto scheduler = make(topology);
    Tracer::local().open(names().engine_run);
    return scheduler;
  };
  return traced;
}

}  // namespace

BatchRound run_batch_round(const BatchShape& shape, const std::vector<std::string>& policies,
                           std::uint64_t seed, bool audit, bool traced) {
  const Names& n = names();
  BatchRound round;
  const std::int64_t setup_begin = now_ns();
  rdcn::ScenarioSpec spec;
  spec.name = "batch_grid";
  spec.topology = shape.topology;
  spec.workload = shape.workload;
  spec.engine.audit = audit;
  spec.base_seed = batch_base_seed(seed);
  spec.repetitions = shape.repetitions;
  if (traced) {
    // ScenarioRunner::instance's own two calls, each timed.
    spec.make_instance = [shape, &n](std::uint64_t rep_seed) {
      Tracer& tracer = Tracer::local();
      tracer.begin_group();
      tracer.open(n.rep);
      const Scope instance_scope(&tracer, n.instance);
      rdcn::Topology topology;
      {
        const Scope scope(&tracer, n.topology);
        topology = rdcn::make_topology(shape.topology, rep_seed);
      }
      rdcn::WorkloadConfig workload = shape.workload;
      workload.seed = rep_seed;
      const Scope scope(&tracer, n.generate);
      return rdcn::generate_workload(topology, workload);
    };
  }
  std::deque<CellFold> folds(policies.size());
  rdcn::BatchRunner runner(shape.threads);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    rdcn::PolicyFactory policy = rdcn::named_policy(policies[i]);
    CellFold& fold = folds[i];
    rdcn::RepMetric metric;
    if (traced) {
      policy = traced_batch_policy(policy);
      metric = [&fold, &n](const rdcn::Instance& instance, const rdcn::RunResult& run) {
        Tracer& tracer = Tracer::local();
        tracer.close(n.engine_run);
        double cost = 0.0;
        {
          const Scope scope(&tracer, n.sink);
          cost = fold_outcomes(fold, instance, run);
        }
        tracer.count(n.sink_packets, run.outcomes.size());
        tracer.close(n.rep);
        return cost;
      };
    } else {
      metric = [&fold](const rdcn::Instance& instance, const rdcn::RunResult& run) {
        return fold_outcomes(fold, instance, run);
      };
    }
    runner.add(spec, std::move(policy), std::move(metric));
  }
  const std::int64_t sim_begin = now_ns();
  round.setup_s = static_cast<double>(sim_begin - setup_begin) * 1e-9;
  const std::vector<rdcn::ScenarioResult> results = runner.run();
  round.sim_s = static_cast<double>(now_ns() - sim_begin) * 1e-9;

  const std::uint64_t expected = shape.repetitions * shape.workload.num_packets;
  for (std::size_t i = 0; i < results.size(); ++i) {
    Fingerprint fingerprint;
    double cost = 0.0;  // summed in seed order: deterministic bits
    for (const rdcn::RepetitionOutcome& rep : results[i].repetitions) {
      fingerprint.steps += rep.steps_simulated;
      cost += rep.total_cost;
      round.step_us.push_back(rep.wall_ms * 1e3 /
                              static_cast<double>(std::max<Time>(rep.steps_simulated, 1)));
    }
    const CellFold& fold = folds[i];
    require(fold.served == expected, policies[i] + ": served != generated packets");
    require(fold.min_latency >= 1, policies[i] + ": a packet completed in its arrival step");
    fingerprint.served = fold.served;
    fingerprint.cost_bits = std::bit_cast<std::uint64_t>(cost);
    fingerprint.latency_p50 = percentile_or(fold.latency, 50.0);
    fingerprint.latency_p99 = percentile_or(fold.latency, 99.0);
    round.served += fold.served;
    round.fingerprints.push_back(fingerprint);
  }
  return round;
}

}  // namespace rdcnbench
