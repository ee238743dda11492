// EXP-Z1: topology-zoo shootout, routed through the declarative suite
// subsystem (run/suite.hpp) end to end -- the suite definition below is
// the same JSON a user would put in examples/suites/, parsed with the
// same strict loader the CLI uses, expanded to a topology x workload x
// policy grid and fanned through the BatchRunner. Every emitted row is a
// BenchReport-schema JSON line, like every other bench's.

#include <cstdio>
#include <stdexcept>

#include "run/suite.hpp"

namespace {

// Batch shootout across all five wiring families at matched port budgets:
// ~16 transmitters / 16 receivers per fabric, identical traffic.
constexpr const char* kZooSuite = R"json({
  "suite": "topology-zoo",
  "mode": "batch",
  "seeds": {"base": 1, "repetitions": 5},
  "policies": ["alg", "maxweight", "fifo"],
  "topologies": [
    {"name": "two-tier", "kind": "two_tier", "racks": 8, "lasers": 2,
     "photodetectors": 2, "density": 0.6, "max_edge_delay": 2},
    {"name": "crossbar", "kind": "crossbar", "ports": 16},
    {"name": "oversub", "kind": "oversubscribed", "racks": 8, "hot_racks": 2,
     "hot_lasers": 4, "hot_photodetectors": 2, "cold_lasers": 1,
     "cold_photodetectors": 1, "density": 0.7, "slow_fraction": 0.25,
     "fixed_base_delay": 4, "oversubscription": 4.0},
    {"name": "expander", "kind": "expander", "racks": 8, "degree": 3,
     "lasers": 2, "photodetectors": 2, "fixed_link_delay": 0},
    {"name": "rotor", "kind": "rotor", "racks": 8, "ports": 2}
  ],
  "workloads": [
    {"name": "zipf", "packets": 150, "rate": 4.0, "skew": "zipf",
     "zipf_exponent": 1.2, "weights": "uniform-int", "weight_max": 10},
    {"name": "permutation", "packets": 150, "rate": 4.0,
     "skew": "permutation", "weights": "uniform-int", "weight_max": 10}
  ]
})json";

}  // namespace

int main() {
  using namespace rdcn;
  SuiteRunner runner{[] {
    try {
      return parse_suite(kZooSuite);
    } catch (const SuiteError& error) {
      // The embedded suite is part of the binary; a parse failure is a bug.
      std::fprintf(stderr, "bench_suite: embedded suite rejected: %s\n", error.what());
      throw;
    }
  }()};

  std::printf("EXP-Z1: topology zoo shootout (%zu grid cells x %zu policies)\n",
              runner.grid_cells(), runner.spec().policies.size());
  std::printf("\n--- machine-readable (JSON lines) ---\n");
  for (const std::string& line : runner.run()) std::printf("%s\n", line.c_str());
  return 0;
}
