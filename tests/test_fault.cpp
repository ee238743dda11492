// Tests of the fault-tolerance layer (PR 10): the util/fault primitives
// (CancelToken, DeadlineWatchdog, transient classification, demangled
// failure descriptions, backoff), the atomic write-temp-fsync-rename file
// helper, and BatchRunner's RunPolicy semantics -- isolate-vs-fail_fast,
// seed-preserving retry with bounded attempts, deadline cancellation at
// engine step boundaries, and the fault-injection hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"

namespace rdcn {
namespace {

// ------------------------------------------------------- util/fault ------

TEST(Fault, BackoffDoublesAndCaps) {
  EXPECT_DOUBLE_EQ(backoff_delay_ms(10.0, 1), 10.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(10.0, 2), 20.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(10.0, 3), 40.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(10.0, 30), 1000.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay_ms(0.0, 5), 0.0);
}

TEST(Fault, TransientClassification) {
  EXPECT_TRUE(is_transient_failure(
      std::make_exception_ptr(TransientError("network hiccup"))));
  EXPECT_TRUE(is_transient_failure(
      std::make_exception_ptr(CancelledError("deadline"))));
  EXPECT_FALSE(is_transient_failure(
      std::make_exception_ptr(std::runtime_error("deterministic"))));
  EXPECT_FALSE(is_transient_failure(
      std::make_exception_ptr(std::logic_error("contract"))));
  EXPECT_FALSE(is_transient_failure(std::make_exception_ptr(42)));
  EXPECT_FALSE(is_transient_failure(nullptr));
}

TEST(Fault, DescribeFailureDemanglesTheType) {
  const FailureInfo cancelled =
      describe_failure(std::make_exception_ptr(CancelledError("took too long")));
  EXPECT_EQ(cancelled.type, "rdcn::CancelledError");
  EXPECT_EQ(cancelled.message, "took too long");
  const FailureInfo logic =
      describe_failure(std::make_exception_ptr(std::logic_error("broken")));
  EXPECT_EQ(logic.type, "std::logic_error");
  const FailureInfo odd = describe_failure(std::make_exception_ptr(42));
  EXPECT_EQ(odd.message, "non-standard exception");
}

TEST(Fault, WatchdogCancelsAfterTheDeadline) {
  DeadlineWatchdog watchdog;
  CancelToken token;
  const DeadlineWatchdog::Guard guard = watchdog.arm(token, 20.0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.cancelled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
}

TEST(Fault, DisarmedGuardNeverFires) {
  DeadlineWatchdog watchdog;
  CancelToken token;
  { const DeadlineWatchdog::Guard guard = watchdog.arm(token, 20.0); }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(token.cancelled());
}

// ------------------------------------------------- util/atomic_file ------

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AtomicFile, WritesAndOverwrites) {
  const std::string path = temp_path("atomic_file_test.txt");
  atomic_write_file(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  atomic_write_file(path, "second, longer contents\n");
  EXPECT_EQ(slurp(path), "second, longer contents\n");
  // No temp residue once the rename landed.
  std::ifstream temp(path + ".tmp");
  EXPECT_FALSE(temp.good());
}

TEST(AtomicFile, MissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file("/nonexistent-dir/x/y.txt", "data"),
               std::runtime_error);
}

// --------------------------------------------- BatchRunner + RunPolicy ---

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
  spec.repetitions = 3;
  return spec;
}

/// Repetition with rep_seed == 2 (repetition index 1) throws `what`.
ScenarioSpec failing_spec(const std::string& what) {
  ScenarioSpec spec = small_spec();
  spec.name = "failing";
  spec.make_instance = [what](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 2) throw std::runtime_error(what);
    return ScenarioRunner(small_spec()).instance(rep_seed);
  };
  return spec;
}

RunPolicy isolate_policy() {
  RunPolicy policy;
  policy.failure = FailurePolicy::Isolate;
  return policy;
}

TEST(RunPolicy, IsolateTurnsAFailureIntoAStructuredErrorRow) {
  BatchRunner batch(2);
  batch.set_policy(isolate_policy());
  batch.add(small_spec(), alg_policy());
  batch.add(failing_spec("cell exploded"), alg_policy());
  batch.add(small_spec(), named_policy("fifo"));
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 3u);

  EXPECT_TRUE(results[1].error.failed);
  EXPECT_EQ(results[1].error.type, "std::runtime_error");
  EXPECT_EQ(results[1].error.message, "cell exploded");
  EXPECT_EQ(results[1].error.repetition, 1u);  // rep_seed 2 = repetition 1
  EXPECT_EQ(results[1].error.attempts, 1);
  EXPECT_TRUE(results[1].repetitions.empty());

  // Healthy siblings are bit-identical to a fault-free sequential run.
  const std::vector<std::pair<std::size_t, std::string>> healthy = {
      {0, "alg"}, {2, "fifo"}};
  for (const auto& [index, policy] : healthy) {
    EXPECT_FALSE(results[index].error.failed);
    const ScenarioResult expected =
        ScenarioRunner(small_spec()).run(named_policy(policy));
    ASSERT_EQ(results[index].repetitions.size(), expected.repetitions.size());
    for (std::size_t r = 0; r < expected.repetitions.size(); ++r) {
      EXPECT_EQ(results[index].repetitions[r].total_cost,
                expected.repetitions[r].total_cost);
      EXPECT_EQ(results[index].repetitions[r].makespan,
                expected.repetitions[r].makespan);
    }
  }
}

TEST(RunPolicy, FailFastReportsTheSuppressedCellCount) {
  BatchRunner batch(2);
  batch.add(failing_spec("first boom"), alg_policy());
  batch.add(failing_spec("second boom"), named_policy("fifo"));
  try {
    batch.run();
    FAIL() << "run() swallowed the failures";
  } catch (const BatchError& error) {
    // Primary = lowest cell; the sibling is counted, not lost.
    EXPECT_NE(std::string(error.what()).find("first boom"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("and 1 more cell failed"),
              std::string::npos)
        << error.what();
  }
}

TEST(RunPolicy, SingleFailureStillRethrowsTheOriginalType) {
  // The historical contract (pinned by test_run.cpp as well): one failed
  // cell rethrows the original exception unwrapped -- no BatchError shim.
  BatchRunner batch(2);
  batch.add(failing_spec("solo"), alg_policy());
  try {
    batch.run();
    FAIL() << "run() swallowed the failure";
  } catch (const BatchError&) {
    FAIL() << "single failure must not be wrapped";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "solo");
  }
}

TEST(RunPolicy, TransientFailuresRetryWithTheSameSeed) {
  // First attempt at rep_seed 2 throws TransientError; the retry re-runs
  // the same seed and must land bit-identical to a fault-free run.
  auto tripped = std::make_shared<std::atomic<bool>>(false);
  ScenarioSpec spec = small_spec();
  spec.make_instance = [tripped](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 2 && !tripped->exchange(true)) {
      throw TransientError("spurious");
    }
    return ScenarioRunner(small_spec()).instance(rep_seed);
  };
  RunPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_ms = 1.0;
  BatchRunner batch(2);
  batch.set_policy(policy);
  batch.add(spec, alg_policy());
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].error.failed);
  const ScenarioResult expected = ScenarioRunner(small_spec()).run(alg_policy());
  ASSERT_EQ(results[0].repetitions.size(), expected.repetitions.size());
  for (std::size_t r = 0; r < expected.repetitions.size(); ++r) {
    EXPECT_EQ(results[0].repetitions[r].total_cost, expected.repetitions[r].total_cost);
  }
}

TEST(RunPolicy, TransientBudgetExhaustionRecordsTheAttemptCount) {
  ScenarioSpec spec = small_spec();
  spec.make_instance = [](std::uint64_t) -> Instance {
    throw TransientError("always flaky");
  };
  RunPolicy policy = isolate_policy();
  policy.max_attempts = 3;
  policy.backoff_base_ms = 1.0;
  BatchRunner batch(1);
  batch.set_policy(policy);
  batch.add(spec, alg_policy());
  const auto results = batch.run();
  ASSERT_TRUE(results[0].error.failed);
  EXPECT_EQ(results[0].error.type, "rdcn::TransientError");
  EXPECT_EQ(results[0].error.attempts, 3);
}

TEST(RunPolicy, DeterministicFailuresAreNeverRetried) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  ScenarioSpec spec = small_spec();
  spec.repetitions = 1;
  spec.make_instance = [calls](std::uint64_t) -> Instance {
    calls->fetch_add(1);
    throw std::logic_error("contract violation");
  };
  RunPolicy policy = isolate_policy();
  policy.max_attempts = 5;
  BatchRunner batch(1);
  batch.set_policy(policy);
  batch.add(spec, alg_policy());
  const auto results = batch.run();
  ASSERT_TRUE(results[0].error.failed);
  EXPECT_EQ(results[0].error.type, "std::logic_error");
  EXPECT_EQ(results[0].error.attempts, 1);
  EXPECT_EQ(calls->load(), 1);
}

TEST(RunPolicy, DeadlineCancelsAtTheNextStepBoundary) {
  // The hook outlasts the deadline without throwing; the engine then
  // observes the cancelled token at its first step boundary and throws
  // CancelledError -- the cooperative-cancellation path end to end.
  RunPolicy policy = isolate_policy();
  policy.deadline_ms = 20.0;
  policy.fault_hook = [](const std::string&, std::size_t, const CancelToken* cancel) {
    ASSERT_NE(cancel, nullptr);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!cancel->cancelled() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  BatchRunner batch(2);
  batch.set_policy(policy);
  batch.add(small_spec(), alg_policy());
  const auto results = batch.run();
  ASSERT_TRUE(results[0].error.failed);
  EXPECT_EQ(results[0].error.type, "rdcn::CancelledError");
  EXPECT_NE(results[0].error.message.find("step boundary"), std::string::npos)
      << results[0].error.message;
}

TEST(RunPolicy, FaultHookSeesCellNamesAndRepetitions) {
  std::mutex mutex;
  std::set<std::pair<std::string, std::size_t>> seen;
  RunPolicy policy;
  policy.fault_hook = [&](const std::string& cell, std::size_t rep,
                          const CancelToken*) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert({cell, rep});
  };
  BatchRunner batch(2);
  batch.set_policy(policy);
  batch.add(small_spec(), alg_policy());
  batch.run();
  EXPECT_EQ(seen.size(), 3u);  // one per repetition
  EXPECT_TRUE(seen.count({"small x alg", 0}));
  EXPECT_TRUE(seen.count({"small x alg", 2}));
}

TEST(RunPolicy, IsolateStreamCellReportsErrorToo) {
  StreamSpec spec;
  spec.name = "failing-stream";
  spec.warmup_packets = 0;
  spec.measure_packets = 10;
  spec.make_trace = [](std::uint64_t) -> Instance {
    throw std::runtime_error("trace failed");
  };
  BatchRunner batch(2);
  batch.set_policy(isolate_policy());
  batch.add_stream(spec, alg_policy());
  const auto results = batch.run_streams();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.failed);
  EXPECT_EQ(results[0].error.message, "trace failed");
  EXPECT_EQ(results[0].scenario, "failing-stream");
}

/// A small generative stream cell; `fail_with` non-empty makes every
/// repetition throw it from trace construction.
StreamSpec small_stream(const std::string& fail_with = "") {
  StreamSpec spec;
  spec.name = fail_with.empty() ? "stream" : "failing-stream";
  spec.topology = small_spec().topology;
  spec.traffic.rho = 0.6;
  spec.repetitions = 2;
  spec.warmup_packets = 20;
  spec.measure_packets = 100;
  if (!fail_with.empty()) {
    spec.make_trace = [fail_with](std::uint64_t) -> Instance {
      throw std::runtime_error(fail_with);
    };
  }
  return spec;
}

TEST(RunPolicy, CellDoneCallbackFiresOncePerCell) {
  // One contract for both cell kinds: a healthy cell fires exactly once;
  // a failed cell fires with error.failed set under isolate, and never
  // under fail_fast (a journaled error row would survive a resume).
  // Cells 0 and 2 are healthy, cell 1 fails.
  using Cells = std::vector<std::size_t>;
  const auto check = [](const char* kind, const auto& add_cells, const auto& drain) {
    for (const bool isolate : {false, true}) {
      SCOPED_TRACE(std::string(kind) + (isolate ? " isolate" : " fail_fast"));
      std::mutex mutex;
      Cells done;
      Cells failed;
      RunPolicy policy;
      policy.failure = isolate ? FailurePolicy::Isolate : FailurePolicy::FailFast;
      BatchRunner batch(2);
      batch.set_policy(policy);
      add_cells(batch);
      const auto on_done = [&](std::size_t cell, const auto& result) {
        const std::lock_guard<std::mutex> lock(mutex);
        done.push_back(cell);
        if (result.error.failed) failed.push_back(cell);
      };
      if (isolate) {
        drain(batch, on_done);
      } else {
        EXPECT_THROW(drain(batch, on_done), std::runtime_error);
      }
      std::sort(done.begin(), done.end());
      EXPECT_EQ(done, (isolate ? Cells{0, 1, 2} : Cells{0, 2}));
      EXPECT_EQ(failed, (isolate ? Cells{1} : Cells{}));
    }
  };
  const auto add_batch = [](BatchRunner& batch) {
    batch.add(small_spec(), alg_policy());
    batch.add(failing_spec("cell exploded"), alg_policy());
    batch.add(small_spec(), named_policy("fifo"));
  };
  const auto run_batch = [](BatchRunner& batch, const auto& on_done) {
    batch.run(on_done);
  };
  check("batch", add_batch, run_batch);
  const auto add_stream = [](BatchRunner& batch) {
    batch.add_stream(small_stream(), alg_policy());
    batch.add_stream(small_stream("trace failed"), alg_policy());
    batch.add_stream(small_stream(), named_policy("fifo"));
  };
  const auto run_streams = [](BatchRunner& batch, const auto& on_done) {
    batch.run_streams(on_done);
  };
  check("stream", add_stream, run_streams);
}

}  // namespace
}  // namespace rdcn
