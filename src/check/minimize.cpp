#include "check/minimize.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "run/random.hpp"
#include "run/scenario.hpp"

namespace rdcn::check {

std::size_t bisect_smallest_failing(std::size_t full,
                                    const std::function<bool(std::size_t)>& fails) {
  std::size_t lo = 1, hi = full;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

namespace {

std::string gtest_header(const MinimizedRepro& repro) {
  std::string text = "TEST(DifferentialRegression, ";
  text += repro.stream ? "StreamSeed" : "Seed";
  text += std::to_string(repro.seed);
  text += ") {\n  // Minimized by rdcn_fuzz: seed " + std::to_string(repro.seed) + ", " +
          std::to_string(repro.original_size) + " -> " + std::to_string(repro.size) +
          (repro.stream ? " measured packets" : " packets");
  if (!repro.violations.empty()) text += "; first violation: " + repro.violations.front();
  text += ".\n";
  return text;
}

}  // namespace

DiffReport check_scenario_seed(std::uint64_t seed, std::size_t prefix, DiffOptions options) {
  const ScenarioSpec spec = random_scenario_spec(seed);
  if (spec.engine.speedup_rounds != 1 || spec.engine.endpoint_capacity != 1 ||
      spec.engine.reconfig_delay != 0) {
    options.variants.push_back(spec.engine);  // the randomized extension draw
  }
  Instance instance = ScenarioRunner(spec).instance(spec.base_seed);
  if (prefix > 0) instance = truncate_packets(instance, prefix);
  // The scenario a sweep checked just before this one: the reused-engine
  // cross-check resets an engine from a run on it.
  const ScenarioSpec previous_spec = random_scenario_spec(seed - 1);
  const Instance previous = ScenarioRunner(previous_spec).instance(previous_spec.base_seed);
  return check_instance(instance, options, &previous);
}

DiffReport check_stream_seed(std::uint64_t seed, std::size_t measure, bool keep_warmup,
                             DiffOptions options) {
  StreamSpec spec = random_stream_spec(seed);
  if (measure > 0) {
    spec.measure_packets = measure;
    if (!keep_warmup) spec.warmup_packets = 0;
  }
  return check_stream(spec, spec.base_seed, options);
}

MinimizedRepro minimize_batch_seed(std::uint64_t seed, const DiffOptions& options,
                                   std::uint64_t neighbor_radius) {
  MinimizedRepro repro;
  repro.seed = seed;
  repro.stream = false;
  repro.original_size = random_scenario_spec(seed).workload.num_packets;

  DiffReport full = check_scenario_seed(seed, 0, options);
  if (full.ok()) {
    repro.violations.clear();
    return repro;  // stopped failing on re-derivation; nothing to shrink
  }
  repro.size = bisect_smallest_failing(repro.original_size, [&](std::size_t prefix) {
    return !check_scenario_seed(seed, prefix, options).ok();
  });
  repro.violations = check_scenario_seed(seed, repro.size, options).violations;

  for (std::uint64_t offset = 1; offset <= neighbor_radius; ++offset) {
    if (seed >= offset && !check_scenario_seed(seed - offset, 0, options).ok()) {
      repro.failing_neighbors.push_back(seed - offset);
    }
    if (!check_scenario_seed(seed + offset, 0, options).ok()) {
      repro.failing_neighbors.push_back(seed + offset);
    }
  }

  repro.ctest_case =
      gtest_header(repro) +
      "  const rdcn::check::DiffReport report =\n"
      "      rdcn::check::check_scenario_seed(" + std::to_string(seed) + "ULL, " +
      std::to_string(repro.size) + ");\n"
      "  EXPECT_TRUE(report.ok()) << report.to_string();\n"
      "}\n";
  return repro;
}

MinimizedRepro minimize_stream_seed(std::uint64_t seed, const DiffOptions& options,
                                    std::uint64_t neighbor_radius) {
  MinimizedRepro repro;
  repro.seed = seed;
  repro.stream = true;
  const StreamSpec spec = random_stream_spec(seed);
  repro.original_size = spec.measure_packets;

  if (check_stream_seed(seed, 0, false, options).ok()) {
    return repro;
  }
  // Shrink the warmup away first (usually irrelevant to the failure), then
  // bisect the measured-packet count.
  const bool keep_warmup =
      check_stream_seed(seed, spec.measure_packets, false, options).ok();
  repro.size =
      bisect_smallest_failing(spec.measure_packets, [&](std::size_t measure) {
        return !check_stream_seed(seed, measure, keep_warmup, options).ok();
      });
  repro.violations = check_stream_seed(seed, repro.size, keep_warmup, options).violations;

  for (std::uint64_t offset = 1; offset <= neighbor_radius; ++offset) {
    if (seed >= offset && !check_stream_seed(seed - offset, 0, false, options).ok()) {
      repro.failing_neighbors.push_back(seed - offset);
    }
    if (!check_stream_seed(seed + offset, 0, false, options).ok()) {
      repro.failing_neighbors.push_back(seed + offset);
    }
  }

  repro.ctest_case =
      gtest_header(repro) +
      "  const rdcn::check::DiffReport report =\n"
      "      rdcn::check::check_stream_seed(" + std::to_string(seed) + "ULL, " +
      std::to_string(repro.size) + ", " + (keep_warmup ? "true" : "false") + ");\n"
      "  EXPECT_TRUE(report.ok()) << report.to_string();\n"
      "}\n";
  return repro;
}

}  // namespace rdcn::check
