#pragma once

// Failure minimization for the fuzz driver: a failing seed is shrunk to
// the smallest workload that still trips the differential checker, nearby
// seeds are probed (a cluster of failing neighbours usually means a
// systematic bug rather than a numerical edge), and the result is emitted
// as a ready-to-paste gtest case that rebuilds the minimized instance
// deterministically from (seed, prefix length).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/differential.hpp"

namespace rdcn::check {

/// Smallest size in [1, full] that still fails, by bisection; requires
/// fails(full). The invariant "fails(hi)" holds throughout, so the result
/// always genuinely fails -- when failure is non-monotone in size the
/// bisection may settle above the true minimum, never on a passing size.
std::size_t bisect_smallest_failing(std::size_t full,
                                    const std::function<bool(std::size_t)>& fails);

/// Canonical fuzz check for one batch seed: derive random_scenario_spec,
/// build the instance, keep the first `prefix` packets (0 = all), add the
/// spec's randomized engine options as a checker variant, run
/// check_instance with seed - 1's instance as the reused engine's previous
/// scenario. Emitted reproducers call exactly this.
DiffReport check_scenario_seed(std::uint64_t seed, std::size_t prefix = 0,
                               DiffOptions options = {});

/// Canonical fuzz check for one stream seed: derive random_stream_spec and
/// run check_stream. measure != 0 overrides measure_packets, and drops the
/// warmup unless keep_warmup is set (the minimizer's shrinking steps).
DiffReport check_stream_seed(std::uint64_t seed, std::size_t measure = 0,
                             bool keep_warmup = false, DiffOptions options = {});

struct MinimizedRepro {
  std::uint64_t seed = 0;
  bool stream = false;
  /// Minimized size: packet-prefix length (batch) or measured packets
  /// (stream). 0 if the seed stopped failing during re-derivation.
  std::size_t size = 0;
  std::size_t original_size = 0;
  std::vector<std::string> violations;       ///< of the minimized case
  std::vector<std::uint64_t> failing_neighbors;  ///< nearby seeds that also fail
  std::string ctest_case;                    ///< ready-to-paste TEST(...)
  bool still_failing() const noexcept { return !violations.empty(); }
};

/// Bisects the packet prefix of random_scenario_spec(seed)'s instance to
/// the smallest length that still fails check_instance under `options`,
/// probing seeds seed +/- 1..neighbor_radius at full size.
MinimizedRepro minimize_batch_seed(std::uint64_t seed, const DiffOptions& options,
                                   std::uint64_t neighbor_radius = 2);

/// Same for random_stream_spec(seed): drops the warmup, then bisects
/// measure_packets to the smallest count that still fails check_stream.
MinimizedRepro minimize_stream_seed(std::uint64_t seed, const DiffOptions& options,
                                    std::uint64_t neighbor_radius = 2);

}  // namespace rdcn::check
