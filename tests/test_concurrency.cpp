// Concurrency stress tests (ISSUE 8): the ThreadSanitizer workout the
// sharded parallel engine will have to keep passing. Everything here runs
// under the ordinary suite too, but the CI tsan job (RDCN_SANITIZE=thread,
// ctest -L concurrency) is where these earn their keep: they hammer the
// thread pool's submit/teardown/exception paths under contention, fan
// BatchRunner / StreamRunner / SuiteRunner grids out over many workers,
// and cross-check every parallel result against a sequential baseline --
// both for races TSan flags directly and for the silent kind that only
// shows up as nondeterministic numbers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fault.hpp"

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "run/suite.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {
namespace {

ScenarioSpec stress_spec(std::size_t repetitions = 6) {
  ScenarioSpec spec;
  spec.name = "concurrency-stress";
  auto& net = spec.topology.two_tier;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.workload.num_packets = 40;
  spec.workload.arrival_rate = 4.0;
  spec.workload.weights = WeightDist::UniformInt;
  spec.repetitions = repetitions;
  // Probe on: every repetition carries a ProbeReport that the aggregation
  // layer merges, so report plumbing is part of the race surface.
  spec.engine.probe.enabled = true;
  return spec;
}

// ------------------------------------------------------------ ThreadPool --

TEST(ConcurrencyStress, ThreadPoolConcurrentSubmitters) {
  // submit() racing from many external threads against the workers'
  // dequeues: the queue, in_flight_ accounting, and both condition
  // variables all see real contention here.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &sum, s] {
      for (int t = 0; t < kTasksEach; ++t) {
        pool.submit([&sum, s, t] {
          sum.fetch_add(static_cast<std::uint64_t>(s * kTasksEach + t),
                        std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  pool.wait_idle();
  const std::uint64_t n = kSubmitters * kTasksEach;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ConcurrencyStress, ThreadPoolRepeatedTeardownWhileBusy) {
  // Construct, load, and destroy pools in a tight loop without wait_idle:
  // the destructor races stopping_ against workers mid-dequeue. Some tasks
  // are discarded by contract; the ones that did run must be complete
  // (no torn increments), and teardown must never hang or terminate.
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    for (int t = 0; t < 32; ++t) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: the destructor joins current tasks and discards the
    // rest of the queue.
  }
  EXPECT_GE(ran.load(), 0);
}

TEST(ConcurrencyStress, ThreadPoolExceptionStorm) {
  // Half the tasks throw; the pool must capture exactly one failure per
  // wait_idle, finish the other half, and stay reusable round after round.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> survived{0};
    for (int t = 0; t < 16; ++t) {
      if (t % 2 == 0) {
        pool.submit([] { throw std::runtime_error("storm"); });
      } else {
        pool.submit([&survived] { survived.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error) << "round " << round;
    EXPECT_EQ(survived.load(), 8) << "round " << round;
    // The failure was collected; the next round starts clean.
    EXPECT_NO_THROW(pool.wait_idle());
  }
}

TEST(ConcurrencyStress, ParallelForManyWaves) {
  ThreadPool pool(4);
  std::vector<std::uint32_t> cells(512, 0);
  for (int wave = 0; wave < 25; ++wave) {
    parallel_for(pool, cells.size(), [&cells](std::size_t i) { ++cells[i]; });
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cells[i], 25u) << "cell " << i;
  }
}

// ----------------------------------------------------------- BatchRunner --

TEST(ConcurrencyStress, BatchGridManyThreadsMatchesSequential) {
  // Six policies x six repetitions across eight workers, probe enabled:
  // every repetition runs a full engine in its own task and the merged
  // ProbeReports ride the aggregation. Costs and merged counters must be
  // bit-identical to the sequential baseline -- scheduling must not leak
  // into results.
  const std::vector<PolicyFactory> policies = {
      named_policy("alg"),      named_policy("maxweight"), named_policy("fifo"),
      named_policy("impact"),   named_policy("jsq"),       named_policy("random"),
  };
  BatchRunner batch(8);
  batch.add_grid(stress_spec(), policies);
  const auto parallel = batch.run();
  ASSERT_EQ(parallel.size(), policies.size());

  const ScenarioRunner runner(stress_spec());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const ScenarioResult sequential = runner.run(policies[p]);
    ASSERT_EQ(parallel[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(parallel[p].repetitions[i].total_cost,
                sequential.repetitions[i].total_cost)
          << policies[p].name << " rep " << i;
      EXPECT_EQ(parallel[p].repetitions[i].makespan, sequential.repetitions[i].makespan)
          << policies[p].name << " rep " << i;
    }
    // Merged probe counters are sums of per-repetition monotone counters,
    // so they are scheduling-independent too.
    ASSERT_TRUE(parallel[p].probe.enabled);
    EXPECT_EQ(parallel[p].probe.counters, sequential.probe.counters)
        << policies[p].name;
  }
}

TEST(ConcurrencyStress, GroupedGridsMatchSequential) {
  // Instance groups on a wide pool: two specs that group (policy grids
  // differing in engine options ride along), a third that differs in one
  // workload field, a make_instance twin that never groups, and a fault
  // aimed at one grouped cell under isolate. Each group repetition builds
  // its instance once and runs its cells on one worker, while the cells'
  // countdowns, ledger slots and completion callbacks race across groups.
  const std::size_t reps = 8;
  ScenarioSpec base = stress_spec(reps);
  ScenarioSpec speedup = base;
  speedup.name = "speedup";
  speedup.engine.speedup_rounds = 2;
  ScenarioSpec heavier = base;
  heavier.name = "heavier";
  heavier.workload.num_packets += 10;
  ScenarioSpec bespoke = base;
  bespoke.name = "bespoke";
  bespoke.make_instance = [](std::uint64_t rep_seed) {
    return ScenarioRunner(stress_spec()).instance(rep_seed);
  };
  const std::vector<ScenarioSpec> specs = {base, speedup, heavier, bespoke};
  const std::vector<PolicyFactory> policies = {
      named_policy("alg"), named_policy("maxweight"), named_policy("islip"),
      named_policy("jsq")};

  RunPolicy isolate;
  isolate.failure = FailurePolicy::Isolate;
  isolate.fault_hook = [](const std::string& cell, std::size_t rep, const CancelToken*) {
    if (cell == "speedup x maxweight" && rep == 5) throw std::runtime_error("aimed");
  };
  BatchRunner batch(4);
  batch.set_policy(isolate);
  for (int round = 0; round < 3; ++round) {
    for (const ScenarioSpec& spec : specs) batch.add_grid(spec, policies);
    std::atomic<std::size_t> done{0};
    const auto results =
        batch.run([&done](std::size_t, const ScenarioResult&) { done.fetch_add(1); });
    ASSERT_EQ(results.size(), specs.size() * policies.size()) << "round " << round;
    EXPECT_EQ(done.load(), results.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const ScenarioRunner runner(specs[s]);
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const ScenarioResult& got = results[s * policies.size() + p];
        if (specs[s].name == "speedup" && policies[p].name == "maxweight") {
          EXPECT_TRUE(got.error.failed);
          EXPECT_EQ(got.error.repetition, 5u);
          continue;
        }
        ASSERT_FALSE(got.error.failed) << got.scenario << " x " << got.policy;
        const ScenarioResult sequential = runner.run(policies[p]);
        ASSERT_EQ(got.repetitions.size(), sequential.repetitions.size());
        for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
          EXPECT_EQ(got.repetitions[i].total_cost, sequential.repetitions[i].total_cost)
              << got.scenario << " x " << got.policy << " rep " << i;
          EXPECT_EQ(got.repetitions[i].makespan, sequential.repetitions[i].makespan)
              << got.scenario << " x " << got.policy << " rep " << i;
        }
        EXPECT_EQ(got.probe.counters, sequential.probe.counters)
            << got.scenario << " x " << got.policy;
      }
    }
  }
}

TEST(ConcurrencyStress, BatchFailureUnderLoadRethrowsAndRecovers) {
  // One poisoned cell among healthy ones, repeatedly, on a wide pool: the
  // exception path (capture, all-or-nothing rethrow, queue clear) runs
  // while sibling repetitions are still executing.
  ScenarioSpec poison = stress_spec(4);
  poison.name = "poisoned";
  poison.make_instance = [](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 3) throw std::runtime_error("poisoned repetition");
    return ScenarioRunner(stress_spec(4)).instance(rep_seed);
  };
  BatchRunner batch(8);
  for (int round = 0; round < 5; ++round) {
    batch.add(stress_spec(4), named_policy("alg"));
    batch.add(poison, named_policy("fifo"));
    batch.add(stress_spec(4), named_policy("maxweight"));
    EXPECT_THROW(batch.run(), std::runtime_error) << "round " << round;
    EXPECT_EQ(batch.cells(), 0u);
  }
  // After five failure rounds the runner still produces correct results.
  batch.add(stress_spec(4), named_policy("alg"));
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult expected = ScenarioRunner(stress_spec(4)).run(named_policy("alg"));
  EXPECT_DOUBLE_EQ(results.front().cost.mean(), expected.cost.mean());
}

// --------------------------------------------- fault tolerance (PR 10) ---

TEST(ConcurrencyStress, IsolateWideFanOutMatchesSequential) {
  // Isolate mode on a wide pool with one poisoned cell per round: the
  // FailureLedger, the per-cell countdown, and the healthy cells' result
  // slots all see contention, and the healthy cells must still come out
  // metric-for-metric identical to sequential runs (probes on).
  ScenarioSpec poison = stress_spec(4);
  poison.name = "poisoned";
  poison.make_instance = [](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 3) throw std::runtime_error("poisoned repetition");
    return ScenarioRunner(stress_spec(4)).instance(rep_seed);
  };
  RunPolicy isolate;
  isolate.failure = FailurePolicy::Isolate;
  const std::vector<PolicyFactory> policies = {
      named_policy("alg"), named_policy("maxweight"), named_policy("fifo"),
      named_policy("jsq")};
  BatchRunner batch(8);
  batch.set_policy(isolate);
  for (int round = 0; round < 3; ++round) {
    batch.add_grid(stress_spec(4), policies);
    batch.add(poison, named_policy("alg"));
    const auto results = batch.run();
    ASSERT_EQ(results.size(), policies.size() + 1) << "round " << round;
    EXPECT_TRUE(results.back().error.failed) << "round " << round;
    EXPECT_EQ(results.back().error.type, "std::runtime_error");
    const ScenarioRunner runner(stress_spec(4));
    for (std::size_t p = 0; p < policies.size(); ++p) {
      ASSERT_FALSE(results[p].error.failed) << policies[p].name;
      const ScenarioResult sequential = runner.run(policies[p]);
      ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
      for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
        EXPECT_EQ(results[p].repetitions[i].total_cost,
                  sequential.repetitions[i].total_cost)
            << policies[p].name << " rep " << i;
      }
      EXPECT_EQ(results[p].probe.counters, sequential.probe.counters)
          << policies[p].name;
    }
  }
}

TEST(ConcurrencyStress, DeadlineFiresWhileThePoolIsBusy) {
  // The watchdog thread cancels tokens while eight workers are mid-run:
  // the arm/disarm handshake, the token's atomic store, and the engine's
  // step-boundary load all race under TSan here. One cell's fault hook
  // stalls every repetition past the deadline; its siblings must finish
  // healthy and the stalled cell must report CancelledError.
  ScenarioSpec stalled = stress_spec(4);
  stalled.name = "stalled";
  RunPolicy policy;
  policy.failure = FailurePolicy::Isolate;
  // Generous enough that healthy repetitions never trip it, even under
  // TSan's slowdown; the stalled cell's hook outwaits it by construction.
  policy.deadline_ms = 150.0;
  policy.fault_hook = [](const std::string& cell, std::size_t,
                         const CancelToken* cancel) {
    if (cell.find("stalled") == std::string::npos || cancel == nullptr) return;
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!cancel->cancelled() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  BatchRunner batch(8);
  batch.set_policy(policy);
  batch.add(stress_spec(4), named_policy("alg"));
  batch.add(stalled, named_policy("fifo"));
  batch.add(stress_spec(4), named_policy("maxweight"));
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[1].error.failed);
  EXPECT_EQ(results[1].error.type, "rdcn::CancelledError");
  EXPECT_FALSE(results[0].error.failed);
  EXPECT_FALSE(results[2].error.failed);
  const ScenarioResult expected =
      ScenarioRunner(stress_spec(4)).run(named_policy("alg"));
  ASSERT_EQ(results[0].repetitions.size(), expected.repetitions.size());
  for (std::size_t i = 0; i < expected.repetitions.size(); ++i) {
    EXPECT_EQ(results[0].repetitions[i].total_cost,
              expected.repetitions[i].total_cost);
  }
}

TEST(ConcurrencyStress, HungCellIsCancelledAndSiblingsDrain) {
  // A hook that hangs until cancellation and then throws (the CLI's
  // "hang" injection): the pool must drain every sibling repetition, the
  // watchdog must reclaim the stuck worker, and repeated rounds must not
  // leak tokens or watchdog state across runs.
  RunPolicy policy;
  policy.failure = FailurePolicy::Isolate;
  policy.deadline_ms = 150.0;
  policy.fault_hook = [](const std::string& cell, std::size_t,
                         const CancelToken* cancel) {
    if (cell.find("hung") == std::string::npos) return;
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cancel != nullptr && !cancel->cancelled() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw CancelledError("hung cell cancelled");
  };
  ScenarioSpec hung = stress_spec(2);
  hung.name = "hung";
  BatchRunner batch(8);
  batch.set_policy(policy);
  for (int round = 0; round < 3; ++round) {
    batch.add(hung, named_policy("alg"));
    batch.add(stress_spec(2), named_policy("fifo"));
    const auto results = batch.run();
    ASSERT_EQ(results.size(), 2u) << "round " << round;
    ASSERT_TRUE(results[0].error.failed) << "round " << round;
    EXPECT_EQ(results[0].error.type, "rdcn::CancelledError");
    EXPECT_EQ(results[0].error.message, "hung cell cancelled");
    EXPECT_FALSE(results[1].error.failed) << "round " << round;
    EXPECT_EQ(results[1].repetitions.size(), 2u);
  }
}

// ---------------------------------------------------------- StreamRunner --

TEST(ConcurrencyStress, StreamGridManyThreadsMatchesSequential) {
  StreamSpec spec;
  spec.name = "stream-stress";
  auto& net = spec.topology.two_tier;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.traffic.rho = 0.6;
  spec.repetitions = 4;
  spec.warmup_packets = 50;
  spec.measure_packets = 300;
  spec.engine.probe.enabled = true;

  const std::vector<PolicyFactory> policies = {named_policy("alg"),
                                               named_policy("fifo")};
  BatchRunner batch(8);
  batch.add_stream_grid(spec, policies);
  const auto parallel = batch.run_streams();
  ASSERT_EQ(parallel.size(), policies.size());

  const StreamRunner runner(spec);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const StreamResult sequential = runner.run(policies[p]);
    ASSERT_EQ(parallel[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(parallel[p].repetitions[i].served, sequential.repetitions[i].served);
      EXPECT_EQ(parallel[p].repetitions[i].total_cost,
                sequential.repetitions[i].total_cost)
          << policies[p].name << " rep " << i;
      EXPECT_EQ(parallel[p].repetitions[i].mean_latency,
                sequential.repetitions[i].mean_latency)
          << policies[p].name << " rep " << i;
    }
    EXPECT_EQ(parallel[p].probe.counters, sequential.probe.counters);
  }
}

// ----------------------------------------------------------- SuiteRunner --

TEST(ConcurrencyStress, SuiteRunnerParallelMatchesSingleThread) {
  // The whole declarative path at once: JSON parse, grid expansion, the
  // BatchRunner fan-out, probe merging ("profile": true), and JSON line
  // rendering. Lines are compared metric by metric (wall-clock and phase
  // self-times are measurements, not results, so only their presence is
  // checked).
  const std::string suite_json = R"({
    "suite": "concurrency-suite",
    "mode": "batch",
    "seeds": {"base": 5, "repetitions": 3},
    "policies": ["alg", "fifo"],
    "engines": [{"name": "profiled", "profile": true}],
    "topologies": [
      {"name": "pod", "kind": "two_tier", "racks": 4, "lasers": 2,
       "photodetectors": 2, "density": 0.8, "max_edge_delay": 2},
      {"name": "xbar", "kind": "crossbar", "ports": 4}
    ],
    "workloads": [
      {"name": "uniform", "packets": 40, "rate": 4.0, "skew": "uniform"},
      {"name": "zipf", "packets": 40, "rate": 4.0, "skew": "zipf",
       "zipf_exponent": 1.2}
    ]
  })";
  const SuiteRunner suite(parse_suite(suite_json));
  const std::vector<std::string> wide = suite.run(8);
  const std::vector<std::string> narrow = suite.run(1);
  ASSERT_EQ(wide.size(), narrow.size());
  ASSERT_EQ(wide.size(), suite.cells());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const json::Value a = json::parse(wide[i]);
    const json::Value b = json::parse(narrow[i]);
    for (const auto& [key, value] : a.as_object()) {
      const json::Value* other = b.find(key);
      ASSERT_NE(other, nullptr) << "line " << i << " key " << key;
      if (key == "wall_ms" || key.rfind("phase_", 0) == 0) continue;
      EXPECT_EQ(json::dump(value), json::dump(*other)) << "line " << i << " key " << key;
    }
  }
}

}  // namespace
}  // namespace rdcn
