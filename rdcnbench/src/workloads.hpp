#pragma once

// The benchmark's workloads and the drive code that runs one repetition of
// each through the library's public APIs (net/, traffic/, workload/, sim/,
// core/, baseline/, run/). Nothing here changes what the library computes:
// the stream drive mirrors StreamRunner's open-loop loop so the engine's
// per-step calls can be timed from outside, and the batch round goes
// through BatchRunner / ScenarioRunner unchanged.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "traffic/source.hpp"
#include "util/json.hpp"

namespace rdcnbench {

class Tracer;

/// What a repetition simulated, compared bit for bit across repetitions,
/// against the traced run and against the recorded reference.
struct Fingerprint {
  std::uint64_t served = 0;     ///< packets retired
  rdcn::Time steps = 0;         ///< engine steps simulated
  std::uint64_t cost_bits = 0;  ///< bits of the total weighted latency (double)
  std::int64_t latency_p50 = -1;  ///< steps; -1 when nothing was measured
  std::int64_t latency_p99 = -1;
  bool truncated = false;       ///< stream: hit the step cap

  bool operator==(const Fingerprint&) const = default;
};

rdcn::json::Value to_json(const Fingerprint& fingerprint);
Fingerprint fingerprint_from_json(const rdcn::json::Value& value);
std::string describe(const Fingerprint& fingerprint);

/// An open-loop stream driven step by step through Engine's streaming API.
struct StreamShape {
  rdcn::TopologySpec topology{};
  rdcn::TrafficConfig traffic{};
  /// Packets with id < warmup are not in the latency percentiles; the run
  /// stops once `measure` packets after them retired, or at the step cap
  /// step_cap_factor x (warmup + measure) / rate + 1024 (StreamRunner's).
  std::size_t warmup = 0;
  std::size_t measure = 0;
  double step_cap_factor = 8.0;
};

/// A batch grid fanned out by BatchRunner: every policy x `repetitions`
/// instances of the ScenarioRunner shape below.
struct BatchShape {
  rdcn::TopologySpec topology{};
  rdcn::WorkloadConfig workload{};
  std::size_t repetitions = 1;  ///< per policy per round
  std::size_t threads = 1;
};

struct Workload {
  std::string name;
  std::vector<std::string> policies;  ///< registry names, run in this order
  std::optional<StreamShape> stream;  ///< exactly one of stream / batch
  std::optional<BatchShape> batch;
};

/// stream_shallow, stream_congested, batch_grid (see rdcnbench/README.md).
const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// The seed the reference fingerprints are recorded for, and the held-out
/// seed on which a claimed gain must also hold.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 2;

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// Printed by an untraced run, in this order, for every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by a traced run, in this order, for every workload.
const std::vector<MetricSpec>& per_layer_metrics();

// --- one repetition ---------------------------------------------------------

struct StreamRep {
  Fingerprint fingerprint;
  double setup_s = 0.0;  ///< topology, calibration, source, policy, engine
  double sim_s = 0.0;    ///< first pull to the last finish_step
  std::uint64_t pending_sum = 0;  ///< pending_candidates().size() per step
  std::uint64_t pending_peak = 0;
  std::uint64_t in_flight_sum = 0;  ///< Engine::in_flight() per step
};

/// One policy's run of a stream shape. `tracer` (nullable) records spans
/// around every call into the library; `step_ns` (nullable) receives the
/// host time of each engine step (begin_step + injects + finish_step).
/// Throws on a conservation violation (dispatched != offered, retired !=
/// served, a drop, a latency below one step, an early stop).
StreamRep run_stream_rep(const StreamShape& shape, const rdcn::PolicyFactory& policy,
                         std::uint64_t seed, bool audit, Tracer* tracer,
                         std::vector<std::uint32_t>* step_ns);

struct BatchRound {
  std::vector<Fingerprint> fingerprints;  ///< one per policy, in order
  double setup_s = 0.0;  ///< BatchRunner (thread pool) + ScenarioRunner construction
  double sim_s = 0.0;    ///< BatchRunner::run
  std::uint64_t served = 0;
  /// Engine::run host time / steps of each repetition, in microseconds
  /// (the runner's own per-repetition stopwatch).
  std::vector<double> step_us;
};

/// One BatchRunner::run over every policy x repetition. Traced rounds
/// route instance generation through ScenarioSpec::make_instance and wrap
/// the policies, so every repetition becomes one span group on its worker.
BatchRound run_batch_round(const BatchShape& shape, const std::vector<std::string>& policies,
                           std::uint64_t seed, bool audit, bool traced);

}  // namespace rdcnbench
