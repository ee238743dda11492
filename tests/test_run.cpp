// Tests for the run/ subsystem: the policy registry, ScenarioRunner
// determinism and metric plumbing, the bespoke-instance hook,
// BatchRunner's deterministic fan-out over the thread pool, and the
// thread pool's exception-propagation / shutdown-ordering contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "small";
  auto& net = spec.topology.two_tier;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.workload.num_packets = 30;
  spec.workload.arrival_rate = 3.0;
  spec.workload.weights = WeightDist::UniformInt;
  spec.repetitions = 4;
  return spec;
}

// ------------------------------------------------------ policy registry --

TEST(PolicyRegistry, EveryNameResolvesAndRuns) {
  const ScenarioRunner runner(small_spec());
  for (const std::string& name : policy_names()) {
    const PolicyFactory policy = named_policy(name);
    EXPECT_EQ(policy.name, name);
    ASSERT_TRUE(policy.dispatcher);
    ASSERT_TRUE(policy.scheduler);
    const RunResult run = runner.run_once(policy, 1);
    EXPECT_GT(run.total_cost, 0.0) << name;
  }
}

TEST(PolicyRegistry, UnknownNameThrows) {
  EXPECT_THROW(named_policy("definitely-not-a-policy"), std::invalid_argument);
}

TEST(PolicyRegistry, GridsLeadWithAlg) {
  EXPECT_EQ(scheduler_baselines().front().name, "ALG");
  EXPECT_EQ(dispatcher_ablations().front().name, "Impact (ALG)");
}

// ------------------------------------------------------- ScenarioRunner --

TEST(ScenarioRunner, InstancesAreDeterministicPerSeed) {
  const ScenarioRunner runner(small_spec());
  const Instance a = runner.instance(7);
  const Instance b = runner.instance(7);
  EXPECT_EQ(a.to_string(), b.to_string());
  const Instance c = runner.instance(8);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(ScenarioRunner, SeedsEnumerateRepetitions) {
  ScenarioSpec spec = small_spec();
  spec.base_seed = 10;
  spec.repetitions = 3;
  EXPECT_EQ(ScenarioRunner(spec).seeds(),
            (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(ScenarioRunner, RunAggregatesAllRepetitions) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult result = runner.run(alg_policy());
  EXPECT_EQ(result.scenario, "small");
  EXPECT_EQ(result.policy, "alg");
  ASSERT_EQ(result.repetitions.size(), 4u);
  double sum = 0.0;
  for (const RepetitionOutcome& rep : result.repetitions) {
    EXPECT_GT(rep.total_cost, 0.0);
    EXPECT_GE(rep.wall_ms, 0.0);
    EXPECT_NEAR(rep.total_cost, rep.reconfig_cost + rep.fixed_cost, 1e-9);
    sum += rep.total_cost;
  }
  EXPECT_NEAR(result.cost.mean(), sum / 4.0, 1e-9);
  // Default metric is total_cost.
  EXPECT_DOUBLE_EQ(result.metric.mean(), result.cost.mean());
}

TEST(ScenarioRunner, RunsAreReproducible) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult a = runner.run(alg_policy());
  const ScenarioResult b = runner.run(alg_policy());
  for (std::size_t i = 0; i < a.repetitions.size(); ++i) {
    EXPECT_EQ(a.repetitions[i].total_cost, b.repetitions[i].total_cost);
    EXPECT_EQ(a.repetitions[i].makespan, b.repetitions[i].makespan);
  }
}

TEST(ScenarioRunner, CustomMetricSeesInstanceAndRun) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult result =
      runner.run(alg_policy(), [](const Instance& instance, const RunResult& run) {
        return run.total_cost / instance.ideal_cost();
      });
  for (const RepetitionOutcome& rep : result.repetitions) {
    EXPECT_GE(rep.metric, 1.0 - 1e-9);  // cost >= trivial bound
  }
}

TEST(ScenarioRunner, BespokeInstanceHookBypassesGenerators) {
  ScenarioSpec spec;
  spec.name = "bespoke";
  spec.make_instance = [](std::uint64_t seed) {
    Topology g;
    g.add_sources(1);
    g.add_destinations(1);
    const NodeIndex t = g.add_transmitter(0);
    const NodeIndex r = g.add_receiver(0);
    g.add_edge(t, r, 1);
    Instance instance(std::move(g), {});
    for (std::uint64_t i = 0; i < seed; ++i) instance.add_packet(1, 1.0, 0, 0);
    return instance;
  };
  const ScenarioRunner runner(spec);
  EXPECT_EQ(runner.instance(3).num_packets(), 3u);
  // Serial drain of 3 unit packets: latencies 1 + 2 + 3.
  EXPECT_DOUBLE_EQ(runner.run_once(alg_policy(), 3).total_cost, 6.0);
}

TEST(ScenarioRunner, EngineOptionsReachTheEngine) {
  ScenarioSpec spec = small_spec();
  spec.engine.speedup_rounds = 3;
  const double fast = ScenarioRunner(spec).run(alg_policy()).cost.mean();
  spec.engine.speedup_rounds = 1;
  const double slow = ScenarioRunner(spec).run(alg_policy()).cost.mean();
  EXPECT_LE(fast, slow + 1e-9);
}

TEST(ScenarioRunner, FixedWiringSharesTopologyAcrossSeeds) {
  ScenarioSpec spec = small_spec();
  spec.topology.fixed_wiring = true;
  const ScenarioRunner runner(spec);
  const Topology a = runner.instance(1).topology();
  const Topology b = runner.instance(2).topology();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeIndex e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).transmitter, b.edge(e).transmitter);
    EXPECT_EQ(a.edge(e).receiver, b.edge(e).receiver);
    EXPECT_EQ(a.edge(e).delay, b.edge(e).delay);
  }
}

TEST(ScenarioRunner, RejectsZeroRepetitions) {
  ScenarioSpec spec = small_spec();
  spec.repetitions = 0;
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
}

// ---------------------------------------------------------- BatchRunner --

TEST(BatchRunner, GridResultsMatchSequentialRuns) {
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};
  BatchRunner batch(2);
  batch.add_grid(small_spec(), policies);
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2u);

  const ScenarioRunner runner(small_spec());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    EXPECT_EQ(results[p].policy, policies[p].name);
    const ScenarioResult sequential = runner.run(policies[p]);
    ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(results[p].repetitions[i].seed, sequential.repetitions[i].seed);
      EXPECT_EQ(results[p].repetitions[i].total_cost, sequential.repetitions[i].total_cost);
    }
  }
}

TEST(BatchRunner, RunClearsTheQueue) {
  BatchRunner batch(1);
  batch.add(small_spec(), alg_policy());
  EXPECT_EQ(batch.cells(), 1u);
  EXPECT_EQ(batch.run().size(), 1u);
  EXPECT_EQ(batch.cells(), 0u);
  EXPECT_TRUE(batch.run().empty());
}

TEST(BatchRunner, ScenarioAndStreamQueuesAreIndependent) {
  // One runner holding both cell kinds: each run drains only its own
  // queue, and the results equal those of two single-kind runners.
  StreamSpec stream;
  stream.name = "stream";
  stream.topology = small_spec().topology;
  stream.traffic.rho = 0.6;
  stream.repetitions = 2;
  stream.warmup_packets = 20;
  stream.measure_packets = 100;
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};

  BatchRunner mixed(2);
  mixed.add_grid(small_spec(), policies);
  mixed.add_stream_grid(stream, policies);
  const std::vector<ScenarioResult> scenario = mixed.run();
  EXPECT_EQ(mixed.cells(), 0u);
  EXPECT_EQ(mixed.stream_cells(), 2u);
  mixed.add(small_spec(), alg_policy());
  const std::vector<StreamResult> streamed = mixed.run_streams();
  EXPECT_EQ(mixed.stream_cells(), 0u);
  EXPECT_EQ(mixed.cells(), 1u);

  BatchRunner scenario_only(2);
  scenario_only.add_grid(small_spec(), policies);
  const std::vector<ScenarioResult> expected_scenario = scenario_only.run();
  BatchRunner stream_only(2);
  stream_only.add_stream_grid(stream, policies);
  const std::vector<StreamResult> expected_stream = stream_only.run_streams();

  ASSERT_EQ(scenario.size(), expected_scenario.size());
  for (std::size_t c = 0; c < scenario.size(); ++c) {
    EXPECT_EQ(scenario[c].policy, expected_scenario[c].policy);
    ASSERT_EQ(scenario[c].repetitions.size(), expected_scenario[c].repetitions.size());
    for (std::size_t r = 0; r < scenario[c].repetitions.size(); ++r) {
      EXPECT_EQ(scenario[c].repetitions[r].total_cost,
                expected_scenario[c].repetitions[r].total_cost);
      EXPECT_EQ(scenario[c].repetitions[r].makespan,
                expected_scenario[c].repetitions[r].makespan);
    }
  }
  ASSERT_EQ(streamed.size(), expected_stream.size());
  for (std::size_t c = 0; c < streamed.size(); ++c) {
    EXPECT_EQ(streamed[c].policy, expected_stream[c].policy);
    ASSERT_EQ(streamed[c].repetitions.size(), expected_stream[c].repetitions.size());
    for (std::size_t r = 0; r < streamed[c].repetitions.size(); ++r) {
      const StreamRepOutcome& got = streamed[c].repetitions[r];
      const StreamRepOutcome& want = expected_stream[c].repetitions[r];
      EXPECT_GT(got.served, 0u);
      EXPECT_EQ(got.served, want.served);
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.total_cost, want.total_cost);
      EXPECT_EQ(got.mean_latency, want.mean_latency);
    }
  }

  // The scenario cell queued between the two runs is still there.
  const std::vector<ScenarioResult> late = mixed.run();
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].cost.mean(), expected_scenario[0].cost.mean());
}

TEST(BatchRunner, MetricsTravelThroughThePool) {
  BatchRunner batch(2);
  batch.add(small_spec(), alg_policy(),
            [](const Instance& instance, const RunResult&) {
              return static_cast<double>(instance.num_packets());
            });
  const auto results = batch.run();
  EXPECT_DOUBLE_EQ(results.at(0).metric.mean(), 30.0);
}

// ----------------------------------------------- BatchRunner instance groups --

/// Every repetition field but the wall clock, bit for bit.
void expect_same_repetitions(const ScenarioResult& got, const ScenarioResult& want) {
  ASSERT_EQ(got.repetitions.size(), want.repetitions.size()) << got.policy;
  for (std::size_t i = 0; i < want.repetitions.size(); ++i) {
    const RepetitionOutcome& a = got.repetitions[i];
    const RepetitionOutcome& b = want.repetitions[i];
    EXPECT_EQ(a.seed, b.seed) << got.policy << " rep " << i;
    EXPECT_EQ(a.total_cost, b.total_cost) << got.policy << " rep " << i;
    EXPECT_EQ(a.reconfig_cost, b.reconfig_cost) << got.policy << " rep " << i;
    EXPECT_EQ(a.fixed_cost, b.fixed_cost) << got.policy << " rep " << i;
    EXPECT_EQ(a.makespan, b.makespan) << got.policy << " rep " << i;
    EXPECT_EQ(a.steps_simulated, b.steps_simulated) << got.policy << " rep " << i;
    EXPECT_EQ(a.metric, b.metric) << got.policy << " rep " << i;
  }
  EXPECT_EQ(got.cost.mean(), want.cost.mean()) << got.policy;
  EXPECT_EQ(got.metric.mean(), want.metric.mean()) << got.policy;
}

const std::vector<PolicyFactory>& four_policies() {
  static const std::vector<PolicyFactory> policies = {
      named_policy("alg"), named_policy("maxweight"), named_policy("islip"),
      named_policy("jsq")};
  return policies;
}

TEST(BatchRunner, GroupedGridIsBitIdenticalToSequentialRuns) {
  // One spec, four policies: the cells share each repetition's instance.
  const ScenarioRunner runner(small_spec());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    BatchRunner batch(threads);
    batch.add_grid(small_spec(), four_policies());
    const auto results = batch.run();
    ASSERT_EQ(results.size(), four_policies().size());
    for (std::size_t p = 0; p < results.size(); ++p) {
      SCOPED_TRACE(threads);
      EXPECT_EQ(results[p].policy, four_policies()[p].name);
      expect_same_repetitions(results[p], runner.run(four_policies()[p]));
    }
  }
}

/// Runs one alg cell per spec on a one-worker pool and returns the fault
/// hook's "cell#rep" log. One worker runs tasks in submission order, so a
/// group shows as its cells interleaved repetition by repetition, and
/// separate cells as each cell's repetitions in a row.
std::vector<std::string> hook_order(const std::vector<ScenarioSpec>& specs) {
  std::vector<std::string> log;
  BatchRunner batch(1);
  RunPolicy policy;
  policy.fault_hook = [&log](const std::string& cell, std::size_t rep,
                             const CancelToken*) {
    log.push_back(cell + "#" + std::to_string(rep));
  };
  batch.set_policy(policy);
  for (const ScenarioSpec& spec : specs) batch.add(spec, alg_policy());
  const auto results = batch.run();
  for (std::size_t c = 0; c < specs.size(); ++c) {
    expect_same_repetitions(results[c], ScenarioRunner(specs[c]).run(alg_policy()));
  }
  return log;
}

TEST(BatchRunner, OnlySpecsBuildingTheSameInstancesGroup) {
  ScenarioSpec a = small_spec();
  a.name = "a";
  a.repetitions = 2;
  const std::vector<std::string> grouped = {"a x alg#0", "b x alg#0", "a x alg#1",
                                            "b x alg#1"};
  const std::vector<std::string> separate = {"a x alg#0", "a x alg#1", "b x alg#0",
                                             "b x alg#1"};
  const auto variant = [&a](const std::function<void(ScenarioSpec&)>& change) {
    ScenarioSpec b = a;
    b.name = "b";
    change(b);
    return std::vector<ScenarioSpec>{a, b};
  };

  // The workload seed is overridden per repetition, and engine options do
  // not shape the instance: these still share it.
  EXPECT_EQ(hook_order(variant([](ScenarioSpec&) {})), grouped);
  EXPECT_EQ(hook_order(variant([](ScenarioSpec& b) { b.workload.seed = 99; })), grouped);
  EXPECT_EQ(hook_order(variant([](ScenarioSpec& b) { b.engine.speedup_rounds = 2; })),
            grouped);

  const std::vector<std::function<void(ScenarioSpec&)>> one_field_apart = {
      [](ScenarioSpec& b) { b.workload.num_packets += 1; },
      [](ScenarioSpec& b) { b.workload.zipf_exponent = 1.3; },
      [](ScenarioSpec& b) { b.workload.skew = PairSkew::Hotspot; },
      [](ScenarioSpec& b) { b.topology.two_tier.density = 0.7; },
      [](ScenarioSpec& b) { b.topology.oversubscribed.racks = 9; },  // unused by two_tier
      [](ScenarioSpec& b) { b.topology.seed_salt = 1; },
      [](ScenarioSpec& b) { b.base_seed = 2; },
  };
  for (std::size_t i = 0; i < one_field_apart.size(); ++i) {
    EXPECT_EQ(hook_order(variant(one_field_apart[i])), separate) << "variant " << i;
  }

  // A bespoke builder cannot be compared, so it never groups -- not even
  // with a copy of itself.
  a.make_instance = [](std::uint64_t rep_seed) {
    return ScenarioRunner(small_spec()).instance(rep_seed);
  };
  EXPECT_EQ(hook_order(variant([](ScenarioSpec&) {})), separate);
}

/// One fault hook call: which cell, which repetition, on which worker.
struct HookCall {
  std::string cell;
  std::size_t rep;
  std::thread::id worker;
};

TEST(BatchRunner, FewRepetitionsStillGroupWhenTheRunFillsThePool) {
  // Two repetitions on four workers, but three groups of two cells make
  // six grouped tasks: enough to fill the pool, so the cells group. Each
  // group repetition then shows as its two cells' hooks back to back on
  // one worker. The hooks sleep so that per-cell tasks would spread over
  // the workers instead.
  std::vector<ScenarioSpec> specs;
  for (const std::size_t packets : {30u, 31u, 32u}) {
    ScenarioSpec spec = small_spec();
    spec.name = "p" + std::to_string(packets);
    spec.workload.num_packets = packets;
    spec.repetitions = 2;
    specs.push_back(spec);
  }
  const std::vector<PolicyFactory> policies = {alg_policy(), named_policy("islip")};
  std::mutex mutex;
  std::vector<HookCall> calls;
  RunPolicy policy;
  policy.fault_hook = [&](const std::string& cell, std::size_t rep, const CancelToken*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::lock_guard<std::mutex> lock(mutex);
    calls.push_back(HookCall{cell, rep, std::this_thread::get_id()});
  };
  BatchRunner batch(4);
  batch.set_policy(policy);
  for (const ScenarioSpec& spec : specs) batch.add_grid(spec, policies);
  const auto results = batch.run();

  ASSERT_EQ(calls.size(), specs.size() * policies.size() * 2);
  for (const ScenarioSpec& spec : specs) {
    for (std::size_t rep = 0; rep < 2; ++rep) {
      const std::string first = spec.name + " x " + policies[0].name;
      const std::string second = spec.name + " x " + policies[1].name;
      const auto at = std::find_if(calls.begin(), calls.end(), [&](const HookCall& call) {
        return call.cell == first && call.rep == rep;
      });
      ASSERT_NE(at, calls.end()) << first << " rep " << rep;
      // The same worker's next call is the group sibling's.
      const auto next =
          std::find_if(std::next(at), calls.end(),
                       [&](const HookCall& call) { return call.worker == at->worker; });
      ASSERT_NE(next, calls.end()) << first << " rep " << rep;
      EXPECT_EQ(next->cell, second) << first << " rep " << rep;
      EXPECT_EQ(next->rep, rep) << first << " rep " << rep;
    }
  }
  for (std::size_t c = 0; c < results.size(); ++c) {
    expect_same_repetitions(results[c], ScenarioRunner(specs[c / policies.size()])
                                            .run(policies[c % policies.size()]));
  }
}

TEST(BatchRunner, RunWithFewerGroupTasksThanWorkersRunsEveryCellAlone) {
  // One group of two cells with two repetitions on four workers: grouped,
  // that is two tasks for four workers, so each (cell, repetition) is its
  // own task instead. All four hooks must then be in flight at once, which
  // a grouped run (two cells in a row on one worker) could never reach.
  ScenarioSpec spec = small_spec();
  spec.repetitions = 2;
  const std::vector<PolicyFactory> policies = {alg_policy(), named_policy("islip")};
  std::mutex mutex;
  std::condition_variable all_in;
  std::size_t arrived = 0;
  std::atomic<std::size_t> met{0};
  RunPolicy policy;
  policy.fault_hook = [&](const std::string&, std::size_t, const CancelToken*) {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    all_in.notify_all();
    if (all_in.wait_for(lock, std::chrono::seconds(10), [&] { return arrived == 4; })) {
      met.fetch_add(1);
    }
  };
  BatchRunner batch(4);
  batch.set_policy(policy);
  batch.add_grid(spec, policies);
  const auto results = batch.run();
  EXPECT_EQ(met.load(), 4u);
  const ScenarioRunner runner(spec);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    expect_same_repetitions(results[p], runner.run(policies[p]));
  }
}

TEST(BatchRunner, IsolatedInstanceBuildFailureFailsEveryCellOfTheGroup) {
  // The expander builder rejects degree >= racks, so every repetition's
  // build throws; each cell of the group records that failure at the
  // first repetition, and the healthy group beside it is untouched.
  ScenarioSpec broken = small_spec();
  broken.name = "broken";
  broken.topology.kind = TopologySpec::Kind::Expander;
  broken.topology.expander.racks = 4;
  broken.topology.expander.degree = 5;
  std::string expected_message;
  try {
    static_cast<void>(ScenarioRunner(broken).instance(broken.base_seed));
  } catch (const std::invalid_argument& error) {
    expected_message = error.what();
  }
  ASSERT_FALSE(expected_message.empty());

  BatchRunner batch(2);
  RunPolicy policy;
  policy.failure = FailurePolicy::Isolate;
  batch.set_policy(policy);
  batch.add_grid(broken, four_policies());
  batch.add_grid(small_spec(), four_policies());
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2 * four_policies().size());
  const ScenarioRunner healthy(small_spec());
  for (std::size_t p = 0; p < four_policies().size(); ++p) {
    const CellError& error = results[p].error;
    EXPECT_TRUE(error.failed) << results[p].policy;
    EXPECT_EQ(error.type, "std::invalid_argument");
    EXPECT_EQ(error.message, expected_message);
    EXPECT_EQ(error.repetition, 0u);
    EXPECT_EQ(error.attempts, 1);
    EXPECT_TRUE(results[p].repetitions.empty());

    const ScenarioResult& sibling = results[four_policies().size() + p];
    EXPECT_FALSE(sibling.error.failed);
    expect_same_repetitions(sibling, healthy.run(four_policies()[p]));
  }
}

TEST(BatchRunner, FaultAimedAtOneCellLeavesItsGroupBitIdentical) {
  // Aim at the group's first cell (whose attempt would build the shared
  // instance) and at a later one; either way the other three cells match
  // sequential runs bit for bit.
  const ScenarioRunner runner(small_spec());
  for (const std::string target : {"alg", "islip"}) {
    SCOPED_TRACE(target);
    BatchRunner batch(2);
    RunPolicy policy;
    policy.failure = FailurePolicy::Isolate;
    policy.fault_hook = [target](const std::string& cell, std::size_t rep,
                                 const CancelToken*) {
      if (cell == "small x " + target && rep == 1) throw std::runtime_error("injected");
    };
    batch.set_policy(policy);
    batch.add_grid(small_spec(), four_policies());
    const auto results = batch.run();
    ASSERT_EQ(results.size(), four_policies().size());
    for (std::size_t p = 0; p < results.size(); ++p) {
      if (results[p].policy == target) {
        EXPECT_TRUE(results[p].error.failed);
        EXPECT_EQ(results[p].error.message, "injected");
        EXPECT_EQ(results[p].error.repetition, 1u);
        continue;
      }
      EXPECT_FALSE(results[p].error.failed) << results[p].policy;
      expect_same_repetitions(results[p], runner.run(four_policies()[p]));
    }
  }
}

// ------------------------------------------------- BatchRunner failures --

/// A spec whose repetition 2 blows up during instance construction (the
/// bespoke-instance hook runs inside the pool task).
ScenarioSpec failing_spec(const std::string& what) {
  ScenarioSpec spec = small_spec();
  spec.name = "failing";
  spec.repetitions = 3;
  spec.make_instance = [what](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 2) throw std::runtime_error(what);
    return ScenarioRunner(small_spec()).instance(rep_seed);
  };
  return spec;
}

TEST(BatchRunner, FirstFailureIsRethrownToTheCaller) {
  BatchRunner batch(2);
  batch.add(failing_spec("rep 2 exploded"), alg_policy());
  try {
    batch.run();
    FAIL() << "run() swallowed the task failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rep 2 exploded");
  }
}

TEST(BatchRunner, CellsAreClearedAfterAThrowAndTheRunnerStaysUsable) {
  BatchRunner batch(2);
  batch.add(small_spec(), alg_policy());
  batch.add(failing_spec("boom"), alg_policy());
  EXPECT_EQ(batch.cells(), 2u);
  EXPECT_THROW(batch.run(), std::runtime_error);
  // The failed run consumed its queue; the runner accepts new work and
  // produces correct results afterwards.
  EXPECT_EQ(batch.cells(), 0u);
  EXPECT_TRUE(batch.run().empty());
  batch.add(small_spec(), alg_policy());
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult expected = ScenarioRunner(small_spec()).run(alg_policy());
  EXPECT_DOUBLE_EQ(results.front().cost.mean(), expected.cost.mean());
}

TEST(BatchRunner, FailingCellDoesNotCorruptSiblingOutcomes) {
  // A failing cell aborts the whole run() (all-or-nothing by contract);
  // re-running the surviving cells afterwards must match a fresh
  // sequential baseline exactly -- no state bleeds across the failure.
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};
  BatchRunner batch(2);
  batch.add(small_spec(), policies[0]);
  batch.add(failing_spec("middle cell"), alg_policy());
  batch.add(small_spec(), policies[1]);
  EXPECT_THROW(batch.run(), std::runtime_error);

  batch.add_grid(small_spec(), policies);
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  const ScenarioRunner runner(small_spec());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const ScenarioResult sequential = runner.run(policies[p]);
    ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(results[p].repetitions[i].total_cost,
                sequential.repetitions[i].total_cost)
          << policies[p].name << " rep " << i;
    }
  }
}

TEST(BatchRunner, StreamCellFailureAlsoRethrowsAndClears) {
  StreamSpec spec;
  spec.name = "failing-stream";
  spec.warmup_packets = 0;
  spec.measure_packets = 10;
  spec.make_trace = [](std::uint64_t) -> Instance {
    throw std::runtime_error("trace construction failed");
  };
  BatchRunner batch(2);
  batch.add_stream(spec, alg_policy());
  EXPECT_THROW(batch.run_streams(), std::runtime_error);
  EXPECT_EQ(batch.stream_cells(), 0u);
  EXPECT_TRUE(batch.run_streams().empty());
}

// ----------------------------------------------------------- ThreadPool --
// Regression tests for the ISSUE 8 failure contract: before it, a task
// that threw escaped the worker's thread function (std::terminate), leaked
// in_flight_ (deadlocking wait_idle), and the destructor *ran* still-queued
// tasks during teardown -- on exception paths those closures can reference
// stack frames that are already being unwound.

TEST(ThreadPool, TaskExceptionPropagatesFromWaitIdleAndClears) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 8; ++i) pool.submit([&completed] { ++completed; });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle swallowed the task failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task failed");
  }
  // All-or-nothing observation: the failure surfaces only after every
  // other in-flight task has finished.
  EXPECT_EQ(completed.load(), 8);
  // The failure was handed off exactly once; the pool stays usable.
  pool.submit([&completed] { ++completed; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstBodyException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(pool, 64,
                            [&ran](std::size_t i) {
                              ++ran;
                              if (i == 3) throw std::logic_error("body blew up");
                            }),
               std::logic_error);
  EXPECT_GE(ran.load(), 1);
  // The pool survives; a clean parallel_for afterwards runs every index.
  std::atomic<int> clean{0};
  parallel_for(pool, 32, [&clean](std::size_t) { ++clean; });
  EXPECT_EQ(clean.load(), 32);
}

TEST(ThreadPool, DestructorDiscardsQueuedTasksInsteadOfRunningThem) {
  // One worker, pinned inside a blocking task while more tasks queue up
  // behind it; the destructor must join the worker after its current task
  // and discard the queue. The drain semantics this test outlaws would
  // execute all 9 tasks on every attempt; the discard semantics make
  // executed == 1 overwhelmingly likely per attempt (the destructor only
  // has to set the stop flag within 50ms), so retries de-flake the test
  // without ever accepting a drain.
  std::size_t executed_after_teardown = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> release{false};
    auto pool = std::make_unique<ThreadPool>(1);
    std::atomic<bool> started{false};
    pool->submit([&started, &release, &executed] {
      started = true;
      while (!release.load()) std::this_thread::yield();
      ++executed;
    });
    while (!started.load()) std::this_thread::yield();
    for (int i = 0; i < 8; ++i) {
      pool->submit([&executed] { ++executed; });
    }
    std::thread destroyer([&pool] { pool.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release = true;
    destroyer.join();
    executed_after_teardown = executed.load();
    if (executed_after_teardown == 1) break;
  }
  EXPECT_EQ(executed_after_teardown, 1u);
}

TEST(ThreadPool, UncollectedFailureIsDroppedAtDestruction) {
  // A throwing task whose wait_idle never runs must not terminate or leak
  // the exception into the destructor -- teardown is noexcept.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("never collected"); });
  // Destructor joins the worker (which has captured the failure) and
  // drops the exception; reaching the end of this scope IS the test.
}

}  // namespace
}  // namespace rdcn
