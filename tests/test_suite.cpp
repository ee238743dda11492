// Tests of the declarative suite subsystem (run/suite.hpp) and the
// topology-zoo integration behind it: the strict JSON layer, parse-error
// quality (distinct, path-qualified, actionable), the normalized-form
// golden round-trip, grid expansion, runner output, and property tests of
// make_topology across the full extended TopologySpec grid.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "run/random.hpp"
#include "run/stream.hpp"
#include "run/suite.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

// --- json utility -----------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const json::Value value = json::parse(
      R"({"a": 1, "b": -2.5, "c": true, "d": null, "e": "x\n\"y\"", "f": [1, 2]})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.find("a")->as_integer(), 1);
  EXPECT_TRUE(value.find("a")->is_integer());
  EXPECT_DOUBLE_EQ(value.find("b")->as_number(), -2.5);
  EXPECT_FALSE(value.find("b")->is_integer());
  EXPECT_TRUE(value.find("c")->as_bool());
  EXPECT_TRUE(value.find("d")->is_null());
  EXPECT_EQ(value.find("e")->as_string(), "x\n\"y\"");
  EXPECT_EQ(value.find("f")->as_array().size(), 2u);
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(Json, DumpParsesBackToItself) {
  const std::string text =
      R"({"name":"zoo","values":[1,2.5,true,null,"s"],"nested":{"k":-7}})";
  const json::Value value = json::parse(text);
  EXPECT_EQ(json::dump(value), text);
  // Pretty form reparses to the same compact form.
  EXPECT_EQ(json::dump(json::parse(json::dump(value, 2))), text);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("[1,]"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1,}"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::ParseError);
  EXPECT_THROW(json::parse("01"), json::ParseError);
  EXPECT_THROW(json::parse("nul"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), json::ParseError);  // duplicate key
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(json::dump(json::Value(std::nan(""))), "null");
  EXPECT_EQ(json::dump(json::Value(1.0 / 0.0)), "null");
}

TEST(Json, DoublesRoundTripBitExactAndShortest) {
  for (const double value : {0.1, 1.0 / 3.0, 0.30000000000000004, 6.02214076e23}) {
    const std::string text = json::dump(json::Value(value));
    EXPECT_EQ(json::parse(text).as_number(), value) << text;
  }
  EXPECT_EQ(json::dump(json::Value(0.1)), "0.1");  // shortest form, not %.17g
}

// --- suite parsing: positive paths ------------------------------------------

const char* kMinimalBatch = R"({
  "suite": "mini",
  "policies": ["alg"],
  "topologies": [{"kind": "crossbar", "ports": 4}],
  "workloads": [{"packets": 10, "rate": 2.0}]
})";

const char* kZooStream = R"({
  "suite": "zoo-stream",
  "mode": "stream",
  "seeds": {"base": 5, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "engines": [{"name": "fast", "speedup": 2}],
  "topologies": [
    {"name": "rot", "kind": "rotor", "racks": 5, "ports": 2},
    {"name": "exp", "kind": "expander", "racks": 6, "degree": 2,
     "fixed_link_delay": 0}
  ],
  "traffic": [
    {"name": "p6", "process": "poisson", "rho": 0.6},
    {"name": "oo", "process": "onoff", "rho": 0.9, "on_stay": 0.85}
  ],
  "stream": {"warmup": 50, "measure": 400, "window": 64, "step_cap_factor": 3.0}
})";

TEST(SuiteParse, MinimalBatchDefaults) {
  const SuiteSpec suite = parse_suite(kMinimalBatch);
  EXPECT_EQ(suite.name, "mini");
  EXPECT_EQ(suite.mode, SuiteSpec::Mode::Batch);
  EXPECT_EQ(suite.base_seed, 1u);
  EXPECT_EQ(suite.repetitions, 3u);
  ASSERT_EQ(suite.engines.size(), 1u);  // default engine materialized
  EXPECT_EQ(suite.engines[0].label, "s1c1r0");
  ASSERT_EQ(suite.topologies.size(), 1u);
  EXPECT_EQ(suite.topologies[0].label, "crossbar");  // label defaults to kind
  EXPECT_EQ(suite.topologies[0].spec.kind, TopologySpec::Kind::Crossbar);
  EXPECT_EQ(suite.topologies[0].spec.crossbar_ports, 4);
  ASSERT_EQ(suite.workloads.size(), 1u);
  EXPECT_EQ(suite.workloads[0].config.num_packets, 10u);
}

TEST(SuiteParse, StreamSuiteFullGrid) {
  const SuiteSpec suite = parse_suite(kZooStream);
  EXPECT_EQ(suite.mode, SuiteSpec::Mode::Stream);
  EXPECT_EQ(suite.base_seed, 5u);
  EXPECT_EQ(suite.warmup_packets, 50u);
  EXPECT_EQ(suite.measure_packets, 400u);
  ASSERT_EQ(suite.traffic.size(), 2u);
  EXPECT_EQ(suite.traffic[1].config.process, ArrivalProcess::OnOff);
  EXPECT_DOUBLE_EQ(suite.traffic[1].config.on_stay, 0.85);

  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(grid.size(), 2u * 2u * 1u);
  EXPECT_EQ(grid[0].name, "zoo-stream/rot/p6/fast");
  // The engine's speedup propagates into the traffic calibration.
  EXPECT_EQ(grid[0].traffic.speedup_rounds, 2);
  EXPECT_EQ(grid[0].engine.speedup_rounds, 2);
  EXPECT_EQ(grid[3].name, "zoo-stream/exp/oo/fast");
}

TEST(SuiteParse, ProfileKeyEnablesTheEngineProbe) {
  // ISSUE 7: the "profile" engine key switches on the probe (aggregates
  // only; the event ring stays with rdcn_cli profile) and survives the
  // normalize -> reparse round trip like every other engine key.
  const SuiteSpec suite = parse_suite(R"({
    "suite": "probed",
    "policies": ["alg"],
    "engines": [{"profile": true}],
    "topologies": [{"kind": "crossbar", "ports": 4}],
    "workloads": [{"packets": 10, "rate": 2.0}]
  })");
  ASSERT_EQ(suite.engines.size(), 1u);
  EXPECT_TRUE(suite.engines[0].options.probe.enabled);
  EXPECT_EQ(suite.engines[0].label, "s1c1r0-profile");
  const std::string normalized = suite_to_json(suite);
  EXPECT_NE(normalized.find("\"profile\": true"), std::string::npos) << normalized;
  const SuiteSpec reparsed = parse_suite(normalized);
  ASSERT_EQ(reparsed.engines.size(), 1u);
  EXPECT_TRUE(reparsed.engines[0].options.probe.enabled);
  EXPECT_EQ(suite_to_json(reparsed), normalized);
}

const char* kStagedStream = R"({
  "suite": "staged",
  "mode": "stream",
  "policies": ["alg"],
  "topologies": [{"kind": "two_tier", "racks": 5}],
  "traffic": [{"rho": 0.6}],
  "stream": {"warmup": 50, "measure": 400},
  "stages": [
    {"duration": 60},
    {"duration": 60, "kill_edges": [1, 2], "kill_racks": [0],
     "dead": "requeue", "rho": 0.4, "speedup": 2},
    {"duration": 0, "restore_edges": [1, 2], "restore_racks": [0]}
  ]
})";

TEST(SuiteParse, StagesParseIntoEveryStreamCell) {
  const SuiteSpec suite = parse_suite(kStagedStream);
  ASSERT_EQ(suite.stages.size(), 3u);
  EXPECT_EQ(suite.stages[0].duration, 60);
  EXPECT_DOUBLE_EQ(suite.stages[0].rho, -1.0);  // inherit
  EXPECT_TRUE(suite.stages[0].mutation.is_noop());
  EXPECT_EQ(suite.stages[1].mutation.kill_edges, (std::vector<EdgeIndex>{1, 2}));
  EXPECT_EQ(suite.stages[1].mutation.kill_racks, (std::vector<NodeIndex>{0}));
  EXPECT_EQ(suite.stages[1].mutation.dead_policy, DeadPolicy::Requeue);
  EXPECT_EQ(suite.stages[1].mutation.speedup_rounds, 2);
  EXPECT_DOUBLE_EQ(suite.stages[1].rho, 0.4);
  EXPECT_EQ(suite.stages[2].duration, 0);
  EXPECT_EQ(suite.stages[2].mutation.restore_edges, (std::vector<EdgeIndex>{1, 2}));
  // The schedule is copied into every expanded grid cell.
  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(grid.size(), 1u);
  ASSERT_EQ(grid[0].stages.size(), 3u);
  EXPECT_EQ(grid[0].stages[1].mutation.kill_edges.size(), 2u);
}

TEST(SuiteParse, StandaloneStagesDocumentMatchesTheSuiteKey) {
  const std::vector<StageSpec> stages = parse_stages_json(R"([
    {"duration": 10},
    {"duration": 0, "kill_edges": [0], "dead": "drop"}
  ])");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[1].mutation.kill_edges, (std::vector<EdgeIndex>{0}));
  EXPECT_EQ(stages[1].mutation.dead_policy, DeadPolicy::Drop);
  EXPECT_THROW(load_stages_file("/nonexistent/stages.json"), SuiteError);
}

/// Every topology kind, on-off traffic under the max_matching capacity
/// model, engines with every key, and a stage with every mutation key.
const char* kEveryKey = R"({
  "suite": "every-key",
  "mode": "stream",
  "seeds": {"base": 7, "repetitions": 2},
  "policies": ["alg", "maxweight"],
  "engines": [
    {"name": "delayed", "speedup": 2, "reconfig_delay": 3, "audit": true},
    {"capacity": 2, "profile": true}
  ],
  "topologies": [
    {"name": "tt", "kind": "two_tier", "racks": 6, "lasers": 3, "photodetectors": 2,
     "density": 0.75, "max_edge_delay": 4, "attach_delay": 1, "fixed_link_delay": 9,
     "allow_self_edges": true, "seed_salt": 11},
    {"kind": "crossbar", "ports": 5, "fixed_wiring": true},
    {"kind": "oversubscribed", "racks": 9, "hot_racks": 2, "hot_lasers": 3,
     "hot_photodetectors": 4, "cold_lasers": 1, "cold_photodetectors": 5,
     "density": 0.5, "fast_delay": 6, "slow_delay": 7, "slow_fraction": 0.25,
     "attach_delay": 10, "fixed_base_delay": 11, "oversubscription": 3.5},
    {"kind": "expander", "racks": 7, "degree": 3, "lasers": 2, "photodetectors": 4,
     "min_edge_delay": 1, "max_edge_delay": 5, "attach_delay": 0,
     "fixed_link_delay": 6, "seed_salt": 12},
    {"kind": "rotor", "racks": 6, "ports": 2, "matchings": 3, "edge_delay": 4,
     "attach_delay": 1, "fixed_link_delay": 5, "seed_salt": 7}
  ],
  "traffic": [
    {"name": "burst", "process": "onoff", "rho": 0.7, "capacity_model": "max_matching",
     "skew": "hotspot", "zipf_exponent": 1.5, "hotspot_fraction": 0.3,
     "weights": "pareto", "weight_max": 12, "pareto_shape": 1.7,
     "elephant_fraction": 0.2, "on_stay": 0.8, "off_stay": 0.6,
     "max_zero_demand_fraction": 0.75}
  ],
  "stream": {"warmup": 10, "measure": 100, "window": 32, "max_steps": 5000,
             "step_cap_factor": 4.5},
  "stages": [
    {"duration": 40, "rho": 0.5, "on_stay": 0.7, "off_stay": 0.4, "kill_edges": [1, 3],
     "restore_edges": [0], "kill_racks": [1], "restore_racks": [2], "speedup": 2,
     "capacity": 1, "dead": "requeue"},
    {"duration": 0}
  ]
})";

// suite_to_json output, byte for byte. Journals embed this text and
// --resume compares it, so a change here makes every journal written by
// an older build unresumable.

const char* kMinimalBatchNormalized = R"json({
  "suite": "mini",
  "mode": "batch",
  "seeds": {
    "base": 1,
    "repetitions": 3
  },
  "policies": [
    "alg"
  ],
  "engines": [
    {
      "name": "s1c1r0",
      "speedup": 1,
      "capacity": 1,
      "reconfig_delay": 0,
      "audit": false,
      "profile": false
    }
  ],
  "topologies": [
    {
      "name": "crossbar",
      "kind": "crossbar",
      "ports": 4,
      "seed_salt": 0,
      "fixed_wiring": false
    }
  ],
  "workloads": [
    {
      "name": "uniform",
      "packets": 10,
      "rate": 2,
      "skew": "uniform",
      "zipf_exponent": 1.2,
      "hotspot_fraction": 0.5,
      "weights": "uniform-int",
      "weight_max": 10,
      "pareto_shape": 1.3,
      "elephant_fraction": 0.1,
      "bursty": false,
      "burst_off_prob": 0.7
    }
  ]
}
)json";

const char* kZooStreamNormalized = R"json({
  "suite": "zoo-stream",
  "mode": "stream",
  "seeds": {
    "base": 5,
    "repetitions": 2
  },
  "policies": [
    "alg",
    "fifo"
  ],
  "engines": [
    {
      "name": "fast",
      "speedup": 2,
      "capacity": 1,
      "reconfig_delay": 0,
      "audit": false,
      "profile": false
    }
  ],
  "topologies": [
    {
      "name": "rot",
      "kind": "rotor",
      "racks": 5,
      "ports": 2,
      "matchings": 0,
      "edge_delay": 1,
      "attach_delay": 0,
      "fixed_link_delay": 0,
      "seed_salt": 0,
      "fixed_wiring": false
    },
    {
      "name": "exp",
      "kind": "expander",
      "racks": 6,
      "degree": 2,
      "lasers": 2,
      "photodetectors": 2,
      "min_edge_delay": 1,
      "max_edge_delay": 2,
      "attach_delay": 0,
      "fixed_link_delay": 0,
      "seed_salt": 0,
      "fixed_wiring": false
    }
  ],
  "traffic": [
    {
      "name": "p6",
      "process": "poisson",
      "rho": 0.6,
      "capacity_model": "ports",
      "skew": "uniform",
      "zipf_exponent": 1.2,
      "hotspot_fraction": 0.5,
      "weights": "uniform-int",
      "weight_max": 10,
      "pareto_shape": 1.3,
      "elephant_fraction": 0.1,
      "on_stay": 0.9,
      "off_stay": 0.7,
      "max_zero_demand_fraction": 0.5
    },
    {
      "name": "oo",
      "process": "onoff",
      "rho": 0.9,
      "capacity_model": "ports",
      "skew": "uniform",
      "zipf_exponent": 1.2,
      "hotspot_fraction": 0.5,
      "weights": "uniform-int",
      "weight_max": 10,
      "pareto_shape": 1.3,
      "elephant_fraction": 0.1,
      "on_stay": 0.85,
      "off_stay": 0.7,
      "max_zero_demand_fraction": 0.5
    }
  ],
  "stream": {
    "warmup": 50,
    "measure": 400,
    "window": 64,
    "max_steps": 0,
    "step_cap_factor": 3
  }
}
)json";

const char* kStagedStreamNormalized = R"json({
  "suite": "staged",
  "mode": "stream",
  "seeds": {
    "base": 1,
    "repetitions": 3
  },
  "policies": [
    "alg"
  ],
  "engines": [
    {
      "name": "s1c1r0",
      "speedup": 1,
      "capacity": 1,
      "reconfig_delay": 0,
      "audit": false,
      "profile": false
    }
  ],
  "topologies": [
    {
      "name": "two_tier",
      "kind": "two_tier",
      "racks": 5,
      "lasers": 2,
      "photodetectors": 2,
      "density": 1,
      "max_edge_delay": 1,
      "attach_delay": 0,
      "fixed_link_delay": 0,
      "allow_self_edges": false,
      "seed_salt": 0,
      "fixed_wiring": false
    }
  ],
  "traffic": [
    {
      "name": "poisson",
      "process": "poisson",
      "rho": 0.6,
      "capacity_model": "ports",
      "skew": "uniform",
      "zipf_exponent": 1.2,
      "hotspot_fraction": 0.5,
      "weights": "uniform-int",
      "weight_max": 10,
      "pareto_shape": 1.3,
      "elephant_fraction": 0.1,
      "on_stay": 0.9,
      "off_stay": 0.7,
      "max_zero_demand_fraction": 0.5
    }
  ],
  "stream": {
    "warmup": 50,
    "measure": 400,
    "window": 256,
    "max_steps": 0,
    "step_cap_factor": 8
  },
  "stages": [
    {
      "duration": 60,
      "rho": -1,
      "on_stay": -1,
      "off_stay": -1,
      "kill_edges": [],
      "restore_edges": [],
      "kill_racks": [],
      "restore_racks": [],
      "speedup": 0,
      "capacity": 0,
      "dead": "drop"
    },
    {
      "duration": 60,
      "rho": 0.4,
      "on_stay": -1,
      "off_stay": -1,
      "kill_edges": [
        1,
        2
      ],
      "restore_edges": [],
      "kill_racks": [
        0
      ],
      "restore_racks": [],
      "speedup": 2,
      "capacity": 0,
      "dead": "requeue"
    },
    {
      "duration": 0,
      "rho": -1,
      "on_stay": -1,
      "off_stay": -1,
      "kill_edges": [],
      "restore_edges": [
        1,
        2
      ],
      "kill_racks": [],
      "restore_racks": [
        0
      ],
      "speedup": 0,
      "capacity": 0,
      "dead": "drop"
    }
  ]
}
)json";

const char* kEveryKeyNormalized = R"json({
  "suite": "every-key",
  "mode": "stream",
  "seeds": {
    "base": 7,
    "repetitions": 2
  },
  "policies": [
    "alg",
    "maxweight"
  ],
  "engines": [
    {
      "name": "delayed",
      "speedup": 2,
      "capacity": 1,
      "reconfig_delay": 3,
      "audit": true,
      "profile": false
    },
    {
      "name": "s1c2r0-profile",
      "speedup": 1,
      "capacity": 2,
      "reconfig_delay": 0,
      "audit": false,
      "profile": true
    }
  ],
  "topologies": [
    {
      "name": "tt",
      "kind": "two_tier",
      "racks": 6,
      "lasers": 3,
      "photodetectors": 2,
      "density": 0.75,
      "max_edge_delay": 4,
      "attach_delay": 1,
      "fixed_link_delay": 9,
      "allow_self_edges": true,
      "seed_salt": 11,
      "fixed_wiring": false
    },
    {
      "name": "crossbar",
      "kind": "crossbar",
      "ports": 5,
      "seed_salt": 0,
      "fixed_wiring": true
    },
    {
      "name": "oversubscribed",
      "kind": "oversubscribed",
      "racks": 9,
      "hot_racks": 2,
      "hot_lasers": 3,
      "hot_photodetectors": 4,
      "cold_lasers": 1,
      "cold_photodetectors": 5,
      "density": 0.5,
      "fast_delay": 6,
      "slow_delay": 7,
      "slow_fraction": 0.25,
      "attach_delay": 10,
      "fixed_base_delay": 11,
      "oversubscription": 3.5,
      "seed_salt": 0,
      "fixed_wiring": false
    },
    {
      "name": "expander",
      "kind": "expander",
      "racks": 7,
      "degree": 3,
      "lasers": 2,
      "photodetectors": 4,
      "min_edge_delay": 1,
      "max_edge_delay": 5,
      "attach_delay": 0,
      "fixed_link_delay": 6,
      "seed_salt": 12,
      "fixed_wiring": false
    },
    {
      "name": "rotor",
      "kind": "rotor",
      "racks": 6,
      "ports": 2,
      "matchings": 3,
      "edge_delay": 4,
      "attach_delay": 1,
      "fixed_link_delay": 5,
      "seed_salt": 7,
      "fixed_wiring": false
    }
  ],
  "traffic": [
    {
      "name": "burst",
      "process": "onoff",
      "rho": 0.7,
      "capacity_model": "max_matching",
      "skew": "hotspot",
      "zipf_exponent": 1.5,
      "hotspot_fraction": 0.3,
      "weights": "pareto",
      "weight_max": 12,
      "pareto_shape": 1.7,
      "elephant_fraction": 0.2,
      "on_stay": 0.8,
      "off_stay": 0.6,
      "max_zero_demand_fraction": 0.75
    }
  ],
  "stream": {
    "warmup": 10,
    "measure": 100,
    "window": 32,
    "max_steps": 5000,
    "step_cap_factor": 4.5
  },
  "stages": [
    {
      "duration": 40,
      "rho": 0.5,
      "on_stay": 0.7,
      "off_stay": 0.4,
      "kill_edges": [
        1,
        3
      ],
      "restore_edges": [
        0
      ],
      "kill_racks": [
        1
      ],
      "restore_racks": [
        2
      ],
      "speedup": 2,
      "capacity": 1,
      "dead": "requeue"
    },
    {
      "duration": 0,
      "rho": -1,
      "on_stay": -1,
      "off_stay": -1,
      "kill_edges": [],
      "restore_edges": [],
      "kill_racks": [],
      "restore_racks": [],
      "speedup": 0,
      "capacity": 0,
      "dead": "drop"
    }
  ]
}
)json";

TEST(SuiteParse, GoldenRoundTripIsAFixpoint) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {kMinimalBatch, kMinimalBatchNormalized},
      {kZooStream, kZooStreamNormalized},
      {kStagedStream, kStagedStreamNormalized},
      {kEveryKey, kEveryKeyNormalized}};
  for (const auto& [text, golden] : cases) {
    const SuiteSpec suite = parse_suite(text);
    const std::string normalized = suite_to_json(suite);
    EXPECT_EQ(normalized, golden);
    const SuiteSpec reparsed = parse_suite(normalized);
    EXPECT_EQ(suite_to_json(reparsed), normalized);
    // The round trip preserves the expanded grid cell for cell.
    if (suite.mode == SuiteSpec::Mode::Batch) {
      const auto a = suite_batch_grid(suite);
      const auto b = suite_batch_grid(reparsed);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name, b[i].name);
    }
  }
}

TEST(SuiteParse, EveryKeyLandsInItsMember) {
  // Round trips cannot see a key read into the wrong member when the
  // writer makes the mirror-image mistake, so this pins each key of the
  // every-key document (values distinct within each object) by hand.
  const SuiteSpec suite = parse_suite(kEveryKey);
  EXPECT_EQ(std::tie(suite.base_seed, suite.repetitions), std::make_tuple(7u, 2u));
  const EngineOptions& delayed = suite.engines.at(0).options;
  EXPECT_EQ(std::tie(delayed.speedup_rounds, delayed.endpoint_capacity,
                     delayed.reconfig_delay, delayed.audit, delayed.probe.enabled),
            std::make_tuple(2, 1, 3, true, false));
  EXPECT_EQ(suite.engines.at(1).label, "s1c2r0-profile");

  const TopologySpec& tt = suite.topologies.at(0).spec;
  const TwoTierConfig& pod = tt.two_tier;
  EXPECT_EQ(std::tie(pod.racks, pod.lasers_per_rack, pod.photodetectors_per_rack,
                     pod.max_edge_delay, pod.attach_delay, pod.fixed_link_delay, tt.seed_salt),
            std::make_tuple(6, 3, 2, 4, 1, 9, 11u));
  EXPECT_EQ(pod.density, 0.75);
  EXPECT_EQ(std::tie(pod.allow_self_edges, tt.fixed_wiring), std::make_tuple(true, false));
  const TopologySpec& xbar = suite.topologies.at(1).spec;
  EXPECT_EQ(std::tie(xbar.crossbar_ports, xbar.fixed_wiring), std::make_tuple(5, true));
  const OversubscribedConfig& over = suite.topologies.at(2).spec.oversubscribed;
  EXPECT_EQ(std::tie(over.racks, over.hot_racks, over.hot_lasers, over.hot_photodetectors,
                     over.cold_lasers, over.cold_photodetectors),
            std::make_tuple(9, 2, 3, 4, 1, 5));
  EXPECT_EQ(std::tie(over.fast_delay, over.slow_delay, over.attach_delay,
                     over.fixed_base_delay),
            std::make_tuple(6, 7, 10, 11));
  EXPECT_EQ(std::tie(over.density, over.slow_fraction, over.oversubscription),
            std::make_tuple(0.5, 0.25, 3.5));
  const ExpanderConfig& exp = suite.topologies.at(3).spec.expander;
  EXPECT_EQ(std::tie(exp.racks, exp.degree, exp.lasers_per_rack, exp.photodetectors_per_rack,
                     exp.min_edge_delay, exp.max_edge_delay, exp.attach_delay,
                     exp.fixed_link_delay),
            std::make_tuple(7, 3, 2, 4, 1, 5, 0, 6));
  EXPECT_EQ(suite.topologies.at(3).spec.seed_salt, 12u);
  const RotorConfig& rot = suite.topologies.at(4).spec.rotor;
  EXPECT_EQ(std::tie(rot.racks, rot.ports_per_rack, rot.num_matchings, rot.edge_delay,
                     rot.attach_delay, rot.fixed_link_delay),
            std::make_tuple(6, 2, 3, 4, 1, 5));
  EXPECT_EQ(suite.topologies.at(4).spec.seed_salt, 7u);

  const TrafficConfig& traffic = suite.traffic.at(0).config;
  const WorkloadConfig& shape = traffic.shape;
  EXPECT_EQ(std::tie(traffic.process, traffic.capacity_model, shape.skew, shape.weights,
                     shape.weight_max),
            std::make_tuple(ArrivalProcess::OnOff, CapacityModel::MaxMatching,
                            PairSkew::Hotspot, WeightDist::Pareto, 12));
  EXPECT_EQ(std::tie(traffic.rho, shape.zipf_exponent, shape.hotspot_fraction,
                     shape.pareto_shape, shape.elephant_fraction, traffic.on_stay,
                     traffic.off_stay, traffic.max_zero_demand_fraction),
            std::make_tuple(0.7, 1.5, 0.3, 1.7, 0.2, 0.8, 0.6, 0.75));
  EXPECT_EQ(std::tie(suite.warmup_packets, suite.measure_packets, suite.telemetry_window,
                     suite.max_steps),
            std::make_tuple(10u, 100u, 32, 5000));
  EXPECT_EQ(suite.step_cap_factor, 4.5);

  const StageSpec& stage = suite.stages.at(0);
  const StageMutation& m = stage.mutation;
  EXPECT_EQ(
      std::tie(stage.duration, m.speedup_rounds, m.endpoint_capacity, m.dead_policy),
      std::make_tuple(40, 2, 1, DeadPolicy::Requeue));
  EXPECT_EQ(std::tie(stage.rho, stage.on_stay, stage.off_stay),
            std::make_tuple(0.5, 0.7, 0.4));
  EXPECT_EQ(m.kill_edges, (std::vector<EdgeIndex>{1, 3}));
  EXPECT_EQ(m.restore_edges, (std::vector<EdgeIndex>{0}));
  EXPECT_EQ(m.kill_racks, (std::vector<NodeIndex>{1}));
  EXPECT_EQ(m.restore_racks, (std::vector<NodeIndex>{2}));

  // Batch workload keys, which a stream document cannot hold.
  const WorkloadConfig workload = parse_suite(R"({
    "suite": "w", "policies": ["alg"], "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 33, "rate": 2.5, "skew": "incast", "zipf_exponent": 1.1,
                   "hotspot_fraction": 0.35, "weights": "bimodal", "weight_max": 44,
                   "pareto_shape": 1.9, "elephant_fraction": 0.15, "bursty": true,
                   "burst_off_prob": 0.45}]
  })").workloads.at(0).config;
  EXPECT_EQ(std::tie(workload.num_packets, workload.skew, workload.weights,
                     workload.weight_max, workload.bursty),
            std::make_tuple(33u, PairSkew::Incast, WeightDist::Bimodal, 44, true));
  EXPECT_EQ(std::tie(workload.arrival_rate, workload.zipf_exponent,
                     workload.hotspot_fraction, workload.pareto_shape,
                     workload.elephant_fraction, workload.burst_off_prob),
            std::make_tuple(2.5, 1.1, 0.35, 1.9, 0.15, 0.45));
}

/// Rebuilds the whole document around a replacement for one value.
using Rebuild = std::function<json::Value(json::Value)>;

/// Collects (path, document) pairs: for every object key anywhere under
/// `value`, the document with that key's value swapped for one of the
/// wrong JSON type (strings become numbers, everything else a string).
void mistype_each_key(const json::Value& value, const std::string& path,
                      const Rebuild& rebuild,
                      std::vector<std::pair<std::string, json::Value>>& out) {
  if (value.is_object()) {
    const json::Object& object = value.as_object();
    for (std::size_t k = 0; k < object.size(); ++k) {
      const std::string& key = object[k].first;
      const std::string key_path = path.empty() ? key : path + "." + key;
      const Rebuild member = [&rebuild, &object, k](json::Value replacement) {
        json::Object copy = object;
        copy[k].second = std::move(replacement);
        return rebuild(json::Value(std::move(copy)));
      };
      const json::Value& old = object[k].second;
      out.emplace_back(key_path, member(old.is_string() ? json::Value(std::int64_t{1})
                                                        : json::Value("mistyped")));
      mistype_each_key(old, key_path, member, out);
    }
  } else if (value.is_array()) {
    const json::Array& array = value.as_array();
    for (std::size_t i = 0; i < array.size(); ++i) {
      const Rebuild element = [&rebuild, &array, i](json::Value replacement) {
        json::Array copy = array;
        copy[i] = std::move(replacement);
        return rebuild(json::Value(std::move(copy)));
      };
      mistype_each_key(array[i], path + "[" + std::to_string(i) + "]", element, out);
    }
  }
}

TEST(SuiteParse, EveryKeyRejectsAWrongTypeAtItsPath) {
  // The keys come from the normalized documents, i.e. from the schema
  // itself, not from a hand-kept list.
  std::size_t keys = 0;
  for (const char* text : {kEveryKey, kMinimalBatch}) {
    const json::Value document = json::parse(suite_to_json(parse_suite(text)));
    std::vector<std::pair<std::string, json::Value>> cases;
    mistype_each_key(document, "", [](json::Value whole) { return whole; }, cases);
    for (const auto& [path, mistyped] : cases) {
      try {
        parse_suite(json::dump(mistyped));
        ADD_FAILURE() << "accepted a mistyped " << path;
      } catch (const SuiteError& error) {
        EXPECT_EQ(error.path(), path) << error.what();
        EXPECT_NE(std::string(error.what()).find("expected "), std::string::npos)
            << error.what();
      }
    }
    keys += cases.size();
  }
  EXPECT_GT(keys, 150u);
}

// --- suite parsing: negative paths ------------------------------------------

/// Expects parse_suite(text) to throw a SuiteError whose path equals
/// `path` and whose message mentions `needle`.
void expect_suite_error(const std::string& text, const std::string& path,
                        const std::string& needle) {
  try {
    parse_suite(text);
    FAIL() << "expected SuiteError(" << path << ")";
  } catch (const SuiteError& error) {
    EXPECT_EQ(error.path(), path) << error.what();
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message: " << error.what() << "\nwanted: " << needle;
  }
}

TEST(SuiteParse, MalformedJsonReportsPosition) {
  expect_suite_error("{\"suite\": \"x\",,}", "", "malformed JSON");
  expect_suite_error("{\"suite\": \"x\",,}", "", "line 1");
  expect_suite_error("", "", "malformed JSON");
}

TEST(SuiteParse, UnknownKeysAreRejectedWithTheAcceptedList) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": 4, "portz": 5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].portz", "unknown key");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10, "packet": 1}]
  })", "workloads[0].packet", "accepts");
  // Kind-specific keys of another kind are unknown too.
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "rotor", "racks": 4, "density": 0.5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].density", "unknown key");
}

TEST(SuiteParse, OutOfRangeValuesNameThePathAndRange) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "two_tier", "density": 1.5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].density", "out of range [0, 1]");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": 1}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].ports", "out of range");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "expander", "racks": 4, "degree": 5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].degree", "exceeds racks - 1");
  expect_suite_error(R"({
    "suite": "x", "seeds": {"repetitions": 0}, "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "seeds.repetitions", "out of range");
}

TEST(SuiteParse, TypeMismatchesNameTheFoundType) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": "eight"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].ports", "expected an integer, found string");
  expect_suite_error(R"({
    "suite": "x", "policies": "alg",
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies", "expected an array, found string");
}

TEST(SuiteParse, BadEnumsListTheKnownValues) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "torus"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].kind", "two_tier crossbar oversubscribed expander rotor");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10, "skew": "ziggurat"}]
  })", "workloads[0].skew", "known:");
}

TEST(SuiteParse, UnknownPoliciesListTheRegistry) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["algg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies[0]", "registry:");
}

TEST(SuiteParse, MissingRequiredKeys) {
  expect_suite_error(R"({"policies": ["alg"], "topologies": [{"kind": "crossbar"}],
                         "workloads": [{}]})",
                     "suite", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "workloads": [{}]})",
                     "topologies", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "topologies": [{"kind": "crossbar"}]})",
                     "workloads", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "topologies": [{"ports": 4}],
                         "workloads": [{"packets": 5}]})",
                     "topologies[0].kind", "required key is missing");
}

TEST(SuiteParse, WrongModeAxesAreActionable) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}],
    "traffic": [{"rho": 0.5}]
  })", "traffic", "only valid when mode is \"stream\"");
  expect_suite_error(R"({
    "suite": "x", "mode": "stream", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "traffic": [{"rho": 0.5}],
    "stream": {"warmup": 1},
    "workloads": [{"packets": 10}]
  })", "workloads", "only valid when mode is \"batch\"");
}

TEST(SuiteParse, StageErrorsNameTheExactPath) {
  // Stages are a stream-mode axis.
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}],
    "stages": [{"duration": 5}]
  })", "stages", "only valid when mode is \"stream\"");
  const std::string stream_prefix = R"({
    "suite": "x", "mode": "stream", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "traffic": [{"rho": 0.5}],
    "stream": {"measure": 100},)";
  expect_suite_error(stream_prefix + R"("stages": []})",
                     "stages", "at least one stage");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 0}, {"duration": 5}]})",
                     "stages[0].duration", "last stage only");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "rho": -0.3}]})",
                     "stages[0].rho", "must be positive");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "off_stay": 0}]})",
                     "stages[0].off_stay", "must be in (0, 1), or -1 to inherit");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "kill_edges": [-1]}]})",
                     "stages[0].kill_edges[0]", "out of range");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "dead": "panic"}]})",
                     "stages[0].dead", "known:");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "durration": 6}]})",
                     "stages[0].durration", "unknown key");
}

TEST(SuiteParse, CrossFieldConstraints) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "engines": [{"capacity": 2, "reconfig_delay": 1}],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "engines[0].reconfig_delay", "requires capacity == 1");
  const auto one_topology = [](const std::string& topology) {
    return R"({"suite": "x", "policies": ["alg"], "topologies": [)" + topology +
           R"(], "workloads": [{"packets": 10}]})";
  };
  expect_suite_error(one_topology(R"({"kind": "oversubscribed", "racks": 4,
                                      "hot_racks": 5})"),
                     "topologies[0].hot_racks", "5 exceeds racks (4)");
  expect_suite_error(one_topology(R"({"kind": "oversubscribed", "fast_delay": 3,
                                      "slow_delay": 2})"),
                     "topologies[0].slow_delay", "2 is below fast_delay (3)");
  expect_suite_error(one_topology(R"({"kind": "expander", "min_edge_delay": 4,
                                      "max_edge_delay": 3})"),
                     "topologies[0].max_edge_delay", "3 is below min_edge_delay (4)");
  expect_suite_error(one_topology(R"({"kind": "rotor", "racks": 4, "matchings": 4})"),
                     "topologies[0].matchings", "4 exceeds racks - 1 (3); 0 selects all");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg", "alg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies[1]", "duplicate policy");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}, {"kind": "crossbar", "ports": 6}],
    "workloads": [{"packets": 10}]
  })", "topologies[1].name", "duplicate label");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "name": "a/b"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].name", "may not contain '/'");
  // The suite name prefixes every cell name, so it obeys the same rule.
  expect_suite_error(R"({
    "suite": "x/y", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}]
  })", "suite", "may not contain '/'");
}

TEST(SuiteParse, DistinctFailuresProduceDistinctMessages) {
  // One representative per failure class; all six must differ pairwise.
  const std::vector<std::string> inputs = {
      "{\"suite\": ",  // malformed
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "xbar"}],
          "workloads": [{}]})",  // bad enum
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "portz": 1}], "workloads": [{}]})",  // unknown key
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "ports": 9999}], "workloads": [{}]})",  // out of range
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "ports": true}], "workloads": [{}]})",  // type mismatch
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind":
          "crossbar"}]})",  // missing axis
  };
  std::set<std::string> messages;
  for (const std::string& text : inputs) {
    try {
      parse_suite(text);
      FAIL() << "expected SuiteError for: " << text;
    } catch (const SuiteError& error) {
      messages.insert(error.what());
    }
  }
  EXPECT_EQ(messages.size(), inputs.size());
}

TEST(SuiteParse, LoadFileReportsMissingFiles) {
  EXPECT_THROW(load_suite_file("/nonexistent/suite.json"), SuiteError);
}

// --- grid expansion and runner ----------------------------------------------

TEST(SuiteRun, BatchLinesAreValidBenchReportJson) {
  SuiteSpec suite = parse_suite(R"({
    "suite": "smoke",
    "seeds": {"base": 1, "repetitions": 2},
    "policies": ["alg", "fifo"],
    "topologies": [
      {"kind": "crossbar", "ports": 4},
      {"name": "rot", "kind": "rotor", "racks": 4}
    ],
    "workloads": [{"packets": 12, "rate": 3.0}]
  })");
  const SuiteRunner runner(suite);
  EXPECT_EQ(runner.grid_cells(), 2u);
  EXPECT_EQ(runner.cells(), 4u);
  ASSERT_EQ(runner.cell_names().size(), 4u);
  EXPECT_EQ(runner.cell_names()[0], "smoke/crossbar/uniform/s1c1r0 x alg");

  const std::vector<std::string> lines = runner.run(2);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    const json::Value parsed = json::parse(line);  // throws on invalid JSON
    EXPECT_EQ(parsed.find("bench")->as_string(), "smoke");
    EXPECT_GT(parsed.find("total_cost")->as_number(), 0.0);
    EXPECT_TRUE(parsed.find("params")->find("topology") != nullptr);
    EXPECT_EQ(parsed.find("params")->find("reps")->as_integer(), 2);
  }
  EXPECT_EQ(json::parse(lines[0]).find("name")->as_string(), "alg");
  EXPECT_EQ(json::parse(lines[1]).find("name")->as_string(), "fifo");
  EXPECT_EQ(json::parse(lines[2]).find("params")->find("kind")->as_string(), "rotor");
}

TEST(SuiteRun, StreamLinesCarryLatencyPercentiles) {
  SuiteSpec suite = parse_suite(R"({
    "suite": "stream-smoke",
    "mode": "stream",
    "seeds": {"base": 2, "repetitions": 1},
    "policies": ["alg"],
    "topologies": [{"kind": "rotor", "racks": 4, "ports": 2}],
    "traffic": [{"rho": 0.5}],
    "stream": {"warmup": 20, "measure": 300, "window": 64}
  })");
  const std::vector<std::string> lines = SuiteRunner(suite).run(1);
  ASSERT_EQ(lines.size(), 1u);
  const json::Value parsed = json::parse(lines[0]);
  EXPECT_EQ(parsed.find("params")->find("mode")->as_string(), "stream");
  EXPECT_GE(parsed.find("p95")->as_integer(), parsed.find("p50")->as_integer());
  EXPECT_GT(parsed.find("throughput")->as_number(), 0.0);
  EXPECT_EQ(parsed.find("truncated_reps")->as_integer(), 0);
}

TEST(SuiteRun, GridOrderIsDeterministic) {
  const SuiteSpec suite = parse_suite(kZooStream);
  const auto names_a = SuiteRunner(suite).cell_names();
  const auto names_b = SuiteRunner(suite).cell_names();
  EXPECT_EQ(names_a, names_b);
  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(names_a.size(), grid.size() * suite.policies.size());
}

// --- fault tolerance, journal, resume ---------------------------------------

const char* kJournalSuite = R"({
  "suite": "journal-smoke",
  "seeds": {"base": 1, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "topologies": [{"kind": "crossbar", "ports": 4}],
  "workloads": [
    {"name": "a", "packets": 12, "rate": 3.0},
    {"name": "b", "packets": 12, "rate": 3.0, "skew": "zipf"}
  ]
})";

std::string journal_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Wall-clock fields are measurements, not results: two runs of the same
/// cell agree on every metric but never on wall_ms, so cross-run row
/// comparisons strip it first (same convention as the check.sh smokes).
std::string strip_wall(std::string row) {
  const std::string key = "\"wall_ms\":";
  const std::size_t at = row.find(key);
  if (at == std::string::npos) return row;
  std::size_t end = row.find_first_of(",}", at + key.size());
  if (end != std::string::npos && row[end] == ',') ++end;
  row.erase(at, end - at);
  return row;
}

std::vector<std::string> strip_wall(std::vector<std::string> rows) {
  for (std::string& row : rows) row = strip_wall(std::move(row));
  return rows;
}

TEST(SuiteFault, JournalRecordsEveryCellAndLoadsBack) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  SuiteRunOptions options;
  options.threads = 2;
  options.journal = journal_path("suite_roundtrip.journal");
  const std::vector<std::string> rows = runner.run(options);
  ASSERT_EQ(rows.size(), 4u);
  const SuiteJournal journal = load_suite_journal(options.journal);
  EXPECT_EQ(journal.spec_json, suite_to_json(suite));
  EXPECT_EQ(journal.rows, rows);
}

TEST(SuiteFault, ResumeSkipsRecordedCellsAndMergesBitIdentical) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  const std::vector<std::string> reference = runner.run(1);
  SuiteRunOptions options;
  options.threads = 1;
  options.journal = journal_path("suite_resume.journal");
  runner.run(options);
  // Blank two rows to fake a run killed mid-suite, then resume: only the
  // missing cells re-run and the merge is bit-identical to the reference.
  SuiteJournal partial = load_suite_journal(options.journal);
  partial.rows[1].clear();
  partial.rows[3].clear();
  const std::vector<std::string> merged = runner.run(options, &partial);
  EXPECT_EQ(strip_wall(merged), strip_wall(reference));
  // The journaled rows survive the merge verbatim -- the resumed cells'
  // rows in the output ARE the journal's bytes, not re-runs.
  EXPECT_EQ(merged[0], partial.rows[0]);
  EXPECT_EQ(merged[2], partial.rows[2]);
  // The journal on disk is complete again after the resumed run.
  EXPECT_EQ(load_suite_journal(options.journal).rows, merged);
}

TEST(SuiteFault, ResumeRefusesAForeignJournal) {
  const SuiteRunner runner(parse_suite(kJournalSuite));
  SuiteRunOptions options;
  options.threads = 1;
  options.journal = journal_path("suite_foreign.journal");
  runner.run(options);
  const SuiteJournal journal = load_suite_journal(options.journal);
  const SuiteRunner other(parse_suite(kMinimalBatch));
  SuiteRunOptions plain;
  plain.threads = 1;
  EXPECT_THROW(other.run(plain, &journal), SuiteError);
}

TEST(SuiteFault, JournalLoaderIsStrict) {
  EXPECT_THROW(load_suite_journal("/nonexistent/file.journal"), SuiteError);
  const std::string garbage = journal_path("suite_garbage.journal");
  {
    std::ofstream out(garbage);
    out << "this is not json\n";
  }
  EXPECT_THROW(load_suite_journal(garbage), SuiteError);
  const std::string untagged = journal_path("suite_untagged.journal");
  {
    std::ofstream out(untagged);
    out << R"({"x": 1})" << "\n";
  }
  EXPECT_THROW(load_suite_journal(untagged), SuiteError);

  // A crash mid-append tears the final record: without its newline and
  // unparseable, it is dropped on load and that cell re-runs. The same
  // bytes anywhere else are corruption.
  const SuiteRunner runner(parse_suite(kJournalSuite));
  SuiteRunOptions options;
  options.threads = 1;
  options.journal = journal_path("suite_whole.journal");
  runner.run(options);
  std::vector<std::string> lines;
  {
    std::ifstream in(options.journal);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // header + 4 cells
  const auto torn_cell =
      static_cast<std::size_t>(json::parse(lines[4]).find("cell")->as_integer());
  const std::string torn = lines[4].substr(0, lines[4].size() / 2);
  const auto write = [](const std::string& name, const std::string& text) {
    const std::string path = journal_path(name);
    std::ofstream(path) << text;
    return path;
  };
  const std::string head = lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n";

  const SuiteJournal recovered =
      load_suite_journal(write("suite_torn.journal", head + lines[3] + "\n" + torn));
  for (std::size_t i = 0; i < recovered.rows.size(); ++i) {
    EXPECT_EQ(recovered.rows[i].empty(), i == torn_cell) << i;
  }
  EXPECT_THROW(load_suite_journal(write("suite_torn_mid.journal",
                                        head + torn + "\n" + lines[3] + "\n")),
               SuiteError);
  EXPECT_THROW(load_suite_journal(write("suite_torn_newline.journal",
                                        head + lines[3] + "\n" + torn + "\n")),
               SuiteError);
}

TEST(SuiteFault, IsolateRendersStructuredErrorRows) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  const std::vector<std::string> reference = runner.run(1);
  SuiteRunOptions options;
  options.threads = 2;
  options.policy.failure = FailurePolicy::Isolate;
  options.policy.fault_hook = [](const std::string& cell, std::size_t,
                                 const CancelToken*) {
    if (cell.find(" x fifo") != std::string::npos) {
      throw std::runtime_error("injected suite fault");
    }
  };
  const std::vector<std::string> rows = runner.run(options);
  const std::vector<std::string> names = runner.cell_names();
  ASSERT_EQ(rows.size(), names.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (names[i].find(" x fifo") != std::string::npos) {
      const json::Value parsed = json::parse(rows[i]);
      EXPECT_EQ(parsed.find("status")->as_string(), "failed");
      EXPECT_EQ(parsed.find("error_type")->as_string(), "std::runtime_error");
      EXPECT_EQ(parsed.find("error_message")->as_string(), "injected suite fault");
      EXPECT_EQ(parsed.find("attempts")->as_integer(), 1);
      // The reported repetition is the lowest failing one -- deterministic
      // regardless of worker scheduling.
      EXPECT_EQ(parsed.find("repetition")->as_integer(), 0);
      EXPECT_EQ(parsed.find("total_cost"), nullptr);
    } else {
      // Healthy cells match the fault-free run on every metric.
      EXPECT_EQ(strip_wall(rows[i]), strip_wall(reference[i])) << names[i];
    }
  }
}

TEST(SuiteFault, FailFastAbortsTheSuite) {
  const SuiteRunner runner(parse_suite(kJournalSuite));
  SuiteRunOptions options;
  options.threads = 2;
  options.policy.fault_hook = [](const std::string& cell, std::size_t,
                                 const CancelToken*) {
    if (cell.find(" x fifo") != std::string::npos) {
      throw std::runtime_error("injected suite fault");
    }
  };
  EXPECT_THROW(runner.run(options), std::runtime_error);
}

// --- make_topology across the extended TopologySpec grid --------------------

std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> edge_list(const Topology& g) {
  std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> list;
  for (const ReconfigEdge& edge : g.edges()) {
    list.emplace_back(edge.transmitter, edge.receiver, edge.delay);
  }
  for (const FixedLink& link : g.fixed_links()) {
    list.emplace_back(-1 - link.source, -1 - link.destination, link.delay);
  }
  return list;
}

/// The full extended grid: every kind with a few config corners each.
std::vector<TopologySpec> topology_grid() {
  std::vector<TopologySpec> grid;
  {
    TopologySpec spec;  // dense two-tier
    spec.two_tier.racks = 5;
    grid.push_back(spec);
    spec.two_tier.density = 0.3;  // sparse + hybrid
    spec.two_tier.fixed_link_delay = 9;
    spec.seed_salt = 7;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Crossbar;
    spec.crossbar_ports = 6;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Oversubscribed;
    spec.oversubscribed.racks = 6;
    grid.push_back(spec);
    spec.oversubscribed.fixed_base_delay = 0;  // patch path
    spec.oversubscribed.density = 0.2;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Expander;
    spec.expander.racks = 7;
    spec.expander.degree = 3;
    grid.push_back(spec);
    spec.expander.fixed_link_delay = 0;  // pure expander
    spec.seed_salt = 11;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Rotor;
    spec.rotor.racks = 6;
    spec.rotor.ports_per_rack = 2;
    grid.push_back(spec);
    spec.rotor.num_matchings = 2;  // sparse offsets
    grid.push_back(spec);
  }
  return grid;
}

/// True when the spec's builder contract guarantees every ordered rack
/// pair is routable.
bool guarantees_full_routability(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologySpec::Kind::TwoTier:
    case TopologySpec::Kind::Crossbar:
    case TopologySpec::Kind::Oversubscribed:
      return true;
    case TopologySpec::Kind::Expander:
      return spec.expander.fixed_link_delay > 0;
    case TopologySpec::Kind::Rotor:
      return spec.rotor.fixed_link_delay > 0 || spec.rotor.num_matchings == 0;
  }
  return false;
}

class TopologyGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopologyGrid, SameSeedIsBitIdentical) {
  const TopologySpec spec = topology_grid()[GetParam()];
  for (const std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
    EXPECT_EQ(edge_list(make_topology(spec, seed)), edge_list(make_topology(spec, seed)));
  }
}

TEST_P(TopologyGrid, ValidatesAndHonorsRoutabilityContract) {
  const TopologySpec spec = topology_grid()[GetParam()];
  const Topology g = make_topology(spec, 3);
  EXPECT_EQ(g.validate(), "");
  ASSERT_GT(g.num_edges() + static_cast<EdgeIndex>(g.fixed_links().size()), 0);
  if (guarantees_full_routability(spec)) {
    for (NodeIndex s = 0; s < g.num_sources(); ++s) {
      for (NodeIndex d = 0; d < g.num_destinations(); ++d) {
        if (s == d) continue;
        EXPECT_TRUE(g.routable(s, d))
            << to_string(spec.kind) << " " << s << "->" << d;
      }
    }
  }
}

TEST_P(TopologyGrid, PortAndDegreeBoundsRespected) {
  const TopologySpec spec = topology_grid()[GetParam()];
  const Topology g = make_topology(spec, 9);
  // Per-port degree can never exceed the opposite side's port count, and
  // the kind-specific caps hold.
  for (NodeIndex t = 0; t < g.num_transmitters(); ++t) {
    EXPECT_LE(static_cast<NodeIndex>(g.edges_of_transmitter(t).size()), g.num_receivers());
  }
  switch (spec.kind) {
    case TopologySpec::Kind::Crossbar:
      EXPECT_EQ(g.num_edges(), spec.crossbar_ports * spec.crossbar_ports);
      break;
    case TopologySpec::Kind::Expander: {
      std::vector<std::size_t> out(static_cast<std::size_t>(g.num_sources()), 0);
      std::vector<std::size_t> in(static_cast<std::size_t>(g.num_destinations()), 0);
      for (const ReconfigEdge& edge : g.edges()) {
        ++out[static_cast<std::size_t>(g.source_of(edge.transmitter))];
        ++in[static_cast<std::size_t>(g.destination_of(edge.receiver))];
      }
      for (const std::size_t degree : out) {
        EXPECT_EQ(degree, static_cast<std::size_t>(spec.expander.degree));
      }
      for (const std::size_t degree : in) {
        EXPECT_EQ(degree, static_cast<std::size_t>(spec.expander.degree));
      }
      break;
    }
    case TopologySpec::Kind::Rotor:
      EXPECT_EQ(g.num_edges(), spec.rotor.racks * rotor_matchings(spec.rotor));
      break;
    case TopologySpec::Kind::TwoTier:
    case TopologySpec::Kind::Oversubscribed:
      break;  // stochastic counts; validate() + routability cover them
  }
}

TEST_P(TopologyGrid, FixedWiringSharesOneTopologyAcrossSeeds) {
  TopologySpec spec = topology_grid()[GetParam()];
  spec.fixed_wiring = true;
  EXPECT_EQ(edge_list(make_topology(spec, 1)), edge_list(make_topology(spec, 999)));
}

TEST_P(TopologyGrid, WorkloadsGenerateOnEveryKind) {
  const TopologySpec spec = topology_grid()[GetParam()];
  WorkloadConfig workload;
  workload.num_packets = 15;
  workload.seed = 4;
  const Instance instance = generate_workload(make_topology(spec, 4), workload);
  EXPECT_EQ(instance.validate(), "");
  EXPECT_EQ(instance.num_packets(), 15u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, TopologyGrid,
                         ::testing::Range<std::size_t>(0, topology_grid().size()));

// --- fuzz grid coverage ------------------------------------------------------

TEST(FuzzGrid, FirstHundredSeedsDrawEveryTopologyKind) {
  std::set<TopologySpec::Kind> batch_kinds;
  std::set<TopologySpec::Kind> stream_kinds;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    batch_kinds.insert(random_scenario_spec(seed).topology.kind);
    stream_kinds.insert(random_stream_spec(seed).topology.kind);
  }
  EXPECT_EQ(batch_kinds.size(), 5u);
  EXPECT_EQ(stream_kinds.size(), 5u);
}

TEST(FuzzGrid, StreamSpecsDrawStagedSchedulesWithBothDeadPolicies) {
  std::size_t staged = 0;
  bool saw_drop = false;
  bool saw_requeue = false;
  bool saw_kill = false;
  bool saw_restore = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const StreamSpec spec = random_stream_spec(seed);
    if (spec.stages.empty()) continue;
    ++staged;
    StreamRunner{spec};  // every drawn schedule passes the runner's validation
    for (const StageSpec& stage : spec.stages) {
      saw_drop |= stage.mutation.dead_policy == DeadPolicy::Drop;
      saw_requeue |= stage.mutation.dead_policy == DeadPolicy::Requeue;
      saw_kill |= !stage.mutation.kill_edges.empty() || !stage.mutation.kill_racks.empty();
      saw_restore |=
          !stage.mutation.restore_edges.empty() || !stage.mutation.restore_racks.empty();
    }
  }
  EXPECT_GT(staged, 15u);  // ~35% of 100 specs carry a schedule
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_requeue);
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_restore);
}

// --- suite round trip over the fuzz grid -------------------------------------

/// A one-cell suite around a fuzz draw: everything a suite document can
/// name (topology, engine knobs, seeds); the caller adds the workload or
/// traffic axis.
SuiteSpec one_cell_suite(SuiteSpec::Mode mode, const TopologySpec& topology,
                         const EngineOptions& engine, std::uint64_t seed) {
  SuiteSpec suite;
  suite.name = "fuzz";
  suite.mode = mode;
  suite.base_seed = seed;
  suite.repetitions = 1;
  suite.policies = {"alg"};
  suite.topologies = {{"t", topology}};
  suite.engines = {{"e", engine}};
  return suite;
}

/// parse_suite(suite_to_json(suite)), or nullopt for a draw outside a suite
/// range -- only the uint64 wiring salt can be, and that is what it checks.
std::optional<SuiteSpec> round_trip(const SuiteSpec& suite, const std::string& draw,
                                    std::vector<std::string>& skipped) {
  try {
    return parse_suite(suite_to_json(suite));
  } catch (const SuiteError& error) {
    EXPECT_EQ(error.path(), "topologies[0].seed_salt") << draw << ": " << error.what();
    EXPECT_GT(suite.topologies[0].spec.seed_salt,
              static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
    skipped.push_back(draw);
    return std::nullopt;
  }
}

auto engine_knobs(const EngineOptions& e) {
  return std::tie(e.speedup_rounds, e.endpoint_capacity, e.reconfig_delay, e.audit,
                  e.probe.enabled);
}

auto traffic_knobs(const TrafficConfig& t) {
  const WorkloadConfig& s = t.shape;
  return std::tie(t.process, t.rho, t.capacity_model, t.on_stay, t.off_stay,
                  t.speedup_rounds, t.max_zero_demand_fraction, s.skew, s.zipf_exponent,
                  s.hotspot_fraction, s.weights, s.weight_max, s.pareto_shape,
                  s.elephant_fraction);
}

auto stage_knobs(const StageSpec& stage) {
  const StageMutation& m = stage.mutation;
  return std::tie(stage.duration, stage.rho, stage.on_stay, stage.off_stay, m.kill_edges,
                  m.restore_edges, m.kill_racks, m.restore_racks, m.speedup_rounds,
                  m.endpoint_capacity, m.dead_policy);
}

std::vector<std::tuple<PacketIndex, Time, Weight, NodeIndex, NodeIndex>> packet_list(
    const Instance& instance) {
  std::vector<std::tuple<PacketIndex, Time, Weight, NodeIndex, NodeIndex>> list;
  for (const Packet& p : instance.packets()) {
    list.emplace_back(p.id, p.arrival, p.weight, p.source, p.destination);
  }
  return list;
}

TEST(FuzzGrid, SuiteRoundTripRebuildsEveryDrawnCell) {
  // The oracle compares what the cells build and hold, never JSON text, so
  // the writer is not checked against itself.
  std::vector<std::string> skipped;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ScenarioSpec batch = random_scenario_spec(seed);
    SuiteSpec suite =
        one_cell_suite(SuiteSpec::Mode::Batch, batch.topology, batch.engine, seed);
    suite.workloads = {{"w", batch.workload}};
    if (const std::optional<SuiteSpec> back =
            round_trip(suite, "batch seed " + std::to_string(seed), skipped)) {
      const ScenarioSpec cell = suite_batch_grid(*back).at(0);
      const Instance expected = ScenarioRunner(batch).instance(seed);
      const Instance actual = ScenarioRunner(cell).instance(seed);
      EXPECT_EQ(edge_list(actual.topology()), edge_list(expected.topology())) << seed;
      EXPECT_EQ(packet_list(actual), packet_list(expected)) << seed;
      EXPECT_EQ(engine_knobs(cell.engine), engine_knobs(batch.engine)) << seed;
      EXPECT_EQ(cell.base_seed, batch.base_seed);
      ++checked;
    }

    const StreamSpec stream = random_stream_spec(seed);
    suite = one_cell_suite(SuiteSpec::Mode::Stream, stream.topology, stream.engine, seed);
    suite.traffic = {{"f", stream.traffic}};
    suite.warmup_packets = stream.warmup_packets;
    suite.measure_packets = stream.measure_packets;
    suite.telemetry_window = stream.telemetry_window;
    suite.max_steps = stream.max_steps;
    suite.step_cap_factor = stream.step_cap_factor;
    suite.stages = stream.stages;
    if (const std::optional<SuiteSpec> back =
            round_trip(suite, "stream seed " + std::to_string(seed), skipped)) {
      const StreamSpec cell = suite_stream_grid(*back).at(0);
      EXPECT_EQ(edge_list(make_topology(cell.topology, seed)),
                edge_list(make_topology(stream.topology, seed)))
          << seed;
      EXPECT_EQ(traffic_knobs(cell.traffic), traffic_knobs(stream.traffic)) << seed;
      EXPECT_EQ(engine_knobs(cell.engine), engine_knobs(stream.engine)) << seed;
      ASSERT_EQ(cell.stages.size(), stream.stages.size()) << seed;
      for (std::size_t k = 0; k < cell.stages.size(); ++k) {
        EXPECT_EQ(stage_knobs(cell.stages[k]), stage_knobs(stream.stages[k])) << seed;
      }
      const auto run_knobs = [](const StreamSpec& spec) {
        return std::tie(spec.warmup_packets, spec.measure_packets, spec.telemetry_window,
                        spec.max_steps, spec.step_cap_factor);
      };
      EXPECT_EQ(run_knobs(cell), run_knobs(stream)) << seed;
      ++checked;
    }
  }
  // Reported, not hidden: suite files cap seed_salt at int64 max, while the
  // fuzz grid draws it from the full uint64 range.
  std::printf("suite round trip: %zu of 200 fuzz draws checked; %zu carry a seed_salt "
              "above the suite range:",
              checked, skipped.size());
  for (const std::string& draw : skipped) std::printf(" [%s]", draw.c_str());
  std::printf("\n");
  EXPECT_GT(checked, 80u);
}

TEST(FuzzGrid, RandomSpecsProduceValidInstances) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScenarioSpec spec = random_scenario_spec(seed);
    const Instance instance = ScenarioRunner(spec).instance(spec.base_seed);
    EXPECT_EQ(instance.validate(), "") << "seed " << seed;
    EXPECT_GT(instance.num_packets(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rdcn