#include "run/suite.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace rdcn {

namespace {

// --- strict object reading --------------------------------------------------

/// Wraps one JSON object: typed getters with range checks, every error
/// carrying the full path, and unknown-key rejection in finish().
class Fields {
 public:
  Fields(const json::Value& value, std::string path) : path_(std::move(path)) {
    if (!value.is_object()) {
      throw SuiteError(path_, std::string("expected an object, found ") + value.type_name());
    }
    object_ = &value.as_object();
  }

  std::string path_of(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const json::Value* member(const char* key) {
    allowed_.emplace_back(key);
    for (const json::Member& entry : *object_) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  std::string str(const char* key, const std::string& fallback) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_string()) {
      throw SuiteError(path_of(key),
                       std::string("expected a string, found ") + value->type_name());
    }
    return value->as_string();
  }

  std::string required_str(const char* key) {
    const json::Value* value = member(key);
    if (!value) throw SuiteError(path_of(key), "required key is missing");
    if (!value->is_string()) {
      throw SuiteError(path_of(key),
                       std::string("expected a string, found ") + value->type_name());
    }
    return value->as_string();
  }

  std::int64_t integer(const char* key, std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_integer()) {
      throw SuiteError(path_of(key),
                       std::string("expected an integer, found ") + value->type_name());
    }
    const std::int64_t parsed = value->as_integer();
    if (parsed < lo || parsed > hi) {
      throw SuiteError(path_of(key), std::to_string(parsed) + " is out of range [" +
                                         std::to_string(lo) + ", " + std::to_string(hi) +
                                         "]");
    }
    return parsed;
  }

  double real(const char* key, double fallback, double lo, double hi) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_number()) {
      throw SuiteError(path_of(key),
                       std::string("expected a number, found ") + value->type_name());
    }
    const double parsed = value->as_number();
    if (!(parsed >= lo && parsed <= hi)) {
      std::ostringstream what;
      what << parsed << " is out of range [" << lo << ", " << hi << "]";
      throw SuiteError(path_of(key), what.str());
    }
    return parsed;
  }

  bool boolean(const char* key, bool fallback) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_bool()) {
      throw SuiteError(path_of(key),
                       std::string("expected true or false, found ") + value->type_name());
    }
    return value->as_bool();
  }

  /// Rejects every key no getter consulted, listing what the object accepts.
  void finish() const {
    for (const json::Member& entry : *object_) {
      if (std::find(allowed_.begin(), allowed_.end(), entry.first) != allowed_.end()) {
        continue;
      }
      std::string known;
      for (const std::string& key : allowed_) known += " " + key;
      throw SuiteError(path_.empty() ? entry.first : path_ + "." + entry.first,
                       "unknown key; this object accepts:" + known);
    }
  }

 private:
  const json::Object* object_;
  std::string path_;
  std::vector<std::string> allowed_;
};

template <typename Enum>
Enum parse_enum(const std::string& path, const std::string& text,
                std::initializer_list<std::pair<const char*, Enum>> mapping) {
  std::string known;
  for (const auto& [name, value] : mapping) {
    if (text == name) return value;
    known += std::string(" ") + name;
  }
  throw SuiteError(path, "unknown value \"" + text + "\"; known:" + known);
}

constexpr std::int64_t kMaxDelay = 1'000'000;
constexpr std::int64_t kMaxPorts = 256;
constexpr std::int64_t kMaxRacks = 4096;

// --- axis entry parsers -----------------------------------------------------

TopologySpec parse_topology(Fields& fields) {
  TopologySpec spec;
  const std::string kind = fields.required_str("kind");
  spec.kind = parse_enum<TopologySpec::Kind>(
      fields.path_of("kind"), kind,
      {{"two_tier", TopologySpec::Kind::TwoTier},
       {"crossbar", TopologySpec::Kind::Crossbar},
       {"oversubscribed", TopologySpec::Kind::Oversubscribed},
       {"expander", TopologySpec::Kind::Expander},
       {"rotor", TopologySpec::Kind::Rotor}});
  spec.seed_salt = static_cast<std::uint64_t>(
      fields.integer("seed_salt", 0, 0, std::numeric_limits<std::int64_t>::max()));
  spec.fixed_wiring = fields.boolean("fixed_wiring", false);

  switch (spec.kind) {
    case TopologySpec::Kind::TwoTier: {
      auto& net = spec.two_tier;
      net.racks = static_cast<NodeIndex>(fields.integer("racks", net.racks, 2, kMaxRacks));
      net.lasers_per_rack =
          static_cast<NodeIndex>(fields.integer("lasers", net.lasers_per_rack, 1, kMaxPorts));
      net.photodetectors_per_rack = static_cast<NodeIndex>(
          fields.integer("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts));
      net.density = fields.real("density", net.density, 0.0, 1.0);
      net.max_edge_delay =
          static_cast<Delay>(fields.integer("max_edge_delay", net.max_edge_delay, 1, kMaxDelay));
      net.attach_delay =
          static_cast<Delay>(fields.integer("attach_delay", net.attach_delay, 0, kMaxDelay));
      net.fixed_link_delay = static_cast<Delay>(
          fields.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay));
      net.allow_self_edges = fields.boolean("allow_self_edges", net.allow_self_edges);
      break;
    }
    case TopologySpec::Kind::Crossbar:
      spec.crossbar_ports =
          static_cast<NodeIndex>(fields.integer("ports", spec.crossbar_ports, 2, kMaxRacks));
      break;
    case TopologySpec::Kind::Oversubscribed: {
      auto& net = spec.oversubscribed;
      net.racks = static_cast<NodeIndex>(fields.integer("racks", net.racks, 2, kMaxRacks));
      net.hot_racks =
          static_cast<NodeIndex>(fields.integer("hot_racks", net.hot_racks, 0, kMaxRacks));
      if (net.hot_racks > net.racks) {
        throw SuiteError(fields.path_of("hot_racks"),
                         std::to_string(net.hot_racks) + " exceeds racks (" +
                             std::to_string(net.racks) + ")");
      }
      net.hot_lasers =
          static_cast<NodeIndex>(fields.integer("hot_lasers", net.hot_lasers, 1, kMaxPorts));
      net.hot_photodetectors = static_cast<NodeIndex>(
          fields.integer("hot_photodetectors", net.hot_photodetectors, 1, kMaxPorts));
      net.cold_lasers =
          static_cast<NodeIndex>(fields.integer("cold_lasers", net.cold_lasers, 1, kMaxPorts));
      net.cold_photodetectors = static_cast<NodeIndex>(
          fields.integer("cold_photodetectors", net.cold_photodetectors, 1, kMaxPorts));
      net.density = fields.real("density", net.density, 0.0, 1.0);
      net.fast_delay =
          static_cast<Delay>(fields.integer("fast_delay", net.fast_delay, 1, kMaxDelay));
      net.slow_delay =
          static_cast<Delay>(fields.integer("slow_delay", net.slow_delay, 1, kMaxDelay));
      if (net.slow_delay < net.fast_delay) {
        throw SuiteError(fields.path_of("slow_delay"),
                         std::to_string(net.slow_delay) + " is below fast_delay (" +
                             std::to_string(net.fast_delay) + ")");
      }
      net.slow_fraction = fields.real("slow_fraction", net.slow_fraction, 0.0, 1.0);
      net.attach_delay =
          static_cast<Delay>(fields.integer("attach_delay", net.attach_delay, 0, kMaxDelay));
      net.fixed_base_delay = static_cast<Delay>(
          fields.integer("fixed_base_delay", net.fixed_base_delay, 0, kMaxDelay));
      net.oversubscription = fields.real("oversubscription", net.oversubscription, 1.0, 64.0);
      break;
    }
    case TopologySpec::Kind::Expander: {
      auto& net = spec.expander;
      net.racks = static_cast<NodeIndex>(fields.integer("racks", net.racks, 2, kMaxRacks));
      net.degree = static_cast<NodeIndex>(fields.integer("degree", net.degree, 1, kMaxRacks));
      if (net.degree > net.racks - 1) {
        throw SuiteError(fields.path_of("degree"),
                         std::to_string(net.degree) + " exceeds racks - 1 (" +
                             std::to_string(net.racks - 1) + ")");
      }
      net.lasers_per_rack =
          static_cast<NodeIndex>(fields.integer("lasers", net.lasers_per_rack, 1, kMaxPorts));
      net.photodetectors_per_rack = static_cast<NodeIndex>(
          fields.integer("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts));
      net.min_edge_delay =
          static_cast<Delay>(fields.integer("min_edge_delay", net.min_edge_delay, 1, kMaxDelay));
      net.max_edge_delay =
          static_cast<Delay>(fields.integer("max_edge_delay", net.max_edge_delay, 1, kMaxDelay));
      if (net.max_edge_delay < net.min_edge_delay) {
        throw SuiteError(fields.path_of("max_edge_delay"),
                         std::to_string(net.max_edge_delay) + " is below min_edge_delay (" +
                             std::to_string(net.min_edge_delay) + ")");
      }
      net.attach_delay =
          static_cast<Delay>(fields.integer("attach_delay", net.attach_delay, 0, kMaxDelay));
      net.fixed_link_delay = static_cast<Delay>(
          fields.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay));
      break;
    }
    case TopologySpec::Kind::Rotor: {
      auto& net = spec.rotor;
      net.racks = static_cast<NodeIndex>(fields.integer("racks", net.racks, 2, kMaxRacks));
      net.ports_per_rack =
          static_cast<NodeIndex>(fields.integer("ports", net.ports_per_rack, 1, kMaxPorts));
      net.num_matchings =
          static_cast<NodeIndex>(fields.integer("matchings", net.num_matchings, 0, kMaxRacks));
      if (net.num_matchings > net.racks - 1) {
        throw SuiteError(fields.path_of("matchings"),
                         std::to_string(net.num_matchings) + " exceeds racks - 1 (" +
                             std::to_string(net.racks - 1) + "); 0 selects all offsets");
      }
      net.edge_delay =
          static_cast<Delay>(fields.integer("edge_delay", net.edge_delay, 1, kMaxDelay));
      net.attach_delay =
          static_cast<Delay>(fields.integer("attach_delay", net.attach_delay, 0, kMaxDelay));
      net.fixed_link_delay = static_cast<Delay>(
          fields.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay));
      break;
    }
  }
  return spec;
}

/// Shape keys shared by batch workloads and stream traffic.
void parse_shape(Fields& fields, WorkloadConfig& shape) {
  const std::string skew = fields.str("skew", "uniform");
  shape.skew = parse_enum<PairSkew>(fields.path_of("skew"), skew,
                                    {{"uniform", PairSkew::Uniform},
                                     {"zipf", PairSkew::Zipf},
                                     {"hotspot", PairSkew::Hotspot},
                                     {"permutation", PairSkew::Permutation},
                                     {"incast", PairSkew::Incast}});
  shape.zipf_exponent = fields.real("zipf_exponent", shape.zipf_exponent, 0.0, 8.0);
  shape.hotspot_fraction = fields.real("hotspot_fraction", shape.hotspot_fraction, 0.0, 1.0);
  const std::string weights = fields.str("weights", "uniform-int");
  shape.weights = parse_enum<WeightDist>(fields.path_of("weights"), weights,
                                         {{"unit", WeightDist::Unit},
                                          {"uniform-int", WeightDist::UniformInt},
                                          {"pareto", WeightDist::Pareto},
                                          {"bimodal", WeightDist::Bimodal}});
  shape.weight_max = fields.integer("weight_max", shape.weight_max, 1, 1'000'000'000);
  shape.pareto_shape = fields.real("pareto_shape", shape.pareto_shape, 1.01, 16.0);
  shape.elephant_fraction =
      fields.real("elephant_fraction", shape.elephant_fraction, 0.0, 1.0);
}

WorkloadConfig parse_workload(Fields& fields) {
  WorkloadConfig config;
  config.num_packets = static_cast<std::size_t>(
      fields.integer("packets", static_cast<std::int64_t>(config.num_packets), 1, 10'000'000));
  config.arrival_rate = fields.real("rate", config.arrival_rate, 1e-6, 1e6);
  parse_shape(fields, config);
  config.bursty = fields.boolean("bursty", config.bursty);
  config.burst_off_prob = fields.real("burst_off_prob", config.burst_off_prob, 0.0, 0.999);
  return config;
}

TrafficConfig parse_traffic(Fields& fields) {
  TrafficConfig config;
  const std::string process = fields.str("process", "poisson");
  config.process = parse_enum<ArrivalProcess>(
      fields.path_of("process"), process,
      {{"poisson", ArrivalProcess::Poisson}, {"onoff", ArrivalProcess::OnOff}});
  config.rho = fields.real("rho", config.rho, 1e-6, 8.0);
  config.capacity_model = parse_enum<CapacityModel>(
      fields.path_of("capacity_model"), fields.str("capacity_model", "ports"),
      {{"ports", CapacityModel::Ports}, {"max_matching", CapacityModel::MaxMatching}});
  parse_shape(fields, config.shape);
  config.on_stay = fields.real("on_stay", config.on_stay, 0.0, 0.999);
  config.off_stay = fields.real("off_stay", config.off_stay, 0.0, 0.999);
  config.max_zero_demand_fraction =
      fields.real("max_zero_demand_fraction", config.max_zero_demand_fraction, 0.0, 1.0);
  return config;
}

/// An optional array of non-negative indices (edge or rack lists of a
/// stage mutation); element errors name "path.key[j]".
template <typename Index>
std::vector<Index> parse_index_array(Fields& fields, const char* key, std::int64_t hi) {
  std::vector<Index> indices;
  const json::Value* value = fields.member(key);
  if (!value) return indices;
  if (!value->is_array()) {
    throw SuiteError(fields.path_of(key),
                     std::string("expected an array, found ") + value->type_name());
  }
  const json::Array& entries = value->as_array();
  indices.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string path = fields.path_of(key) + "[" + std::to_string(i) + "]";
    if (!entries[i].is_integer()) {
      throw SuiteError(path,
                       std::string("expected an integer, found ") + entries[i].type_name());
    }
    const std::int64_t parsed = entries[i].as_integer();
    if (parsed < 0 || parsed > hi) {
      throw SuiteError(path, std::to_string(parsed) + " is out of range [0, " +
                                 std::to_string(hi) + "]");
    }
    indices.push_back(static_cast<Index>(parsed));
  }
  return indices;
}

/// "-1 inherits" traffic overrides: the range getter admits the sentinel,
/// this rejects the dead zone in between.
void check_override(const std::string& path, double value, const char* requirement) {
  if (value != -1.0 && !(value > 0.0)) {
    throw SuiteError(path, std::string(requirement) + ", or -1 to inherit the traffic axis");
  }
}

StageSpec parse_stage(Fields& fields) {
  StageSpec stage;
  stage.duration =
      static_cast<Time>(fields.integer("duration", 0, 0, 1'000'000'000'000));
  stage.rho = fields.real("rho", -1.0, -1.0, 8.0);
  check_override(fields.path_of("rho"), stage.rho, "must be positive");
  stage.on_stay = fields.real("on_stay", -1.0, -1.0, 0.999);
  check_override(fields.path_of("on_stay"), stage.on_stay, "must be in (0, 1)");
  stage.off_stay = fields.real("off_stay", -1.0, -1.0, 0.999);
  check_override(fields.path_of("off_stay"), stage.off_stay, "must be in (0, 1)");
  // Index bounds against the topology come later (Engine::apply_mutation
  // validates at run time -- the suite grid may span several topologies);
  // the parse-time cap only rejects nonsense.
  constexpr std::int64_t kMaxIndex = 100'000'000;
  stage.mutation.kill_edges = parse_index_array<EdgeIndex>(fields, "kill_edges", kMaxIndex);
  stage.mutation.restore_edges =
      parse_index_array<EdgeIndex>(fields, "restore_edges", kMaxIndex);
  stage.mutation.kill_racks = parse_index_array<NodeIndex>(fields, "kill_racks", kMaxRacks);
  stage.mutation.restore_racks =
      parse_index_array<NodeIndex>(fields, "restore_racks", kMaxRacks);
  stage.mutation.speedup_rounds =
      static_cast<int>(fields.integer("speedup", 0, 0, 16));
  stage.mutation.endpoint_capacity =
      static_cast<int>(fields.integer("capacity", 0, 0, 64));
  stage.mutation.dead_policy = parse_enum<DeadPolicy>(
      fields.path_of("dead"), fields.str("dead", "drop"),
      {{"drop", DeadPolicy::Drop}, {"requeue", DeadPolicy::Requeue}});
  return stage;
}

/// Shared by the suite "stages" key and the standalone schedule document.
std::vector<StageSpec> parse_stage_entries(const json::Value& value,
                                           const std::string& key) {
  if (!value.is_array()) {
    throw SuiteError(key, std::string("expected an array, found ") + value.type_name());
  }
  const json::Array& entries = value.as_array();
  if (entries.empty()) throw SuiteError(key, "needs at least one stage");
  std::vector<StageSpec> stages;
  stages.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string path = key + "[" + std::to_string(i) + "]";
    Fields fields(entries[i], path);
    StageSpec stage = parse_stage(fields);
    fields.finish();
    if (stage.duration == 0 && i + 1 != entries.size()) {
      throw SuiteError(path + ".duration",
                       "0 (run to the end) is legal for the last stage only");
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

EngineOptions parse_engine(Fields& fields) {
  EngineOptions options;
  options.speedup_rounds =
      static_cast<int>(fields.integer("speedup", options.speedup_rounds, 1, 16));
  options.endpoint_capacity =
      static_cast<int>(fields.integer("capacity", options.endpoint_capacity, 1, 64));
  options.reconfig_delay =
      static_cast<Delay>(fields.integer("reconfig_delay", options.reconfig_delay, 0, kMaxDelay));
  if (options.reconfig_delay > 0 && options.endpoint_capacity != 1) {
    throw SuiteError(fields.path_of("reconfig_delay"),
                     "requires capacity == 1 (the engine's reconfiguration-delay "
                     "extension is defined on the matching model)");
  }
  options.audit = fields.boolean("audit", options.audit);
  // Observability: cells run with the engine probe on and their rows grow
  // phase_<name>_ns metrics. Aggregates only -- no raw-span ring; the
  // rdcn_cli profile subcommand is the trace-export front end.
  options.probe.enabled = fields.boolean("profile", options.probe.enabled);
  return options;
}

std::string default_engine_label(const EngineOptions& options) {
  std::string label = "s" + std::to_string(options.speedup_rounds) + "c" +
                      std::to_string(options.endpoint_capacity) + "r" +
                      std::to_string(options.reconfig_delay);
  if (options.audit) label += "-audit";
  if (options.probe.enabled) label += "-profile";
  return label;
}

void check_label(const std::string& path, const std::string& label) {
  if (label.empty()) throw SuiteError(path, "labels must be non-empty");
  if (label.find('/') != std::string::npos) {
    throw SuiteError(path, "label \"" + label + "\" may not contain '/'"
                           " (labels compose cell names)");
  }
}

template <typename Entry>
void check_unique_labels(const std::string& axis, const std::vector<Entry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[i].label == entries[j].label) {
        throw SuiteError(axis + "[" + std::to_string(j) + "].name",
                         "duplicate label \"" + entries[j].label +
                             "\"; give each axis entry a distinct \"name\"");
      }
    }
  }
}

template <typename Fn>
void parse_axis(Fields& doc, const char* key, bool required, Fn&& parse_entry) {
  const json::Value* value = doc.member(key);
  if (!value) {
    if (required) throw SuiteError(key, "required key is missing");
    return;
  }
  if (!value->is_array()) {
    throw SuiteError(key, std::string("expected an array, found ") + value->type_name());
  }
  const json::Array& entries = value->as_array();
  if (required && entries.empty()) {
    throw SuiteError(key, "needs at least one entry");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    parse_entry(entries[i], std::string(key) + "[" + std::to_string(i) + "]");
  }
}

/// json::parse, with malformed input reported as a document-level
/// SuiteError carrying the parser's position.
json::Value parse_document(const std::string& json_text) {
  try {
    return json::parse(json_text);
  } catch (const json::ParseError& error) {
    throw SuiteError("", std::string("malformed JSON: ") + error.what());
  }
}

/// Reads the `kind` file at `path` and hands its text to `parse`. Errors
/// are re-wrapped so the message leads with the file; the JSON path
/// survives inside what() (it prefixes the original message).
template <typename Parse>
auto load_file(const std::string& path, const char* kind, const Parse& parse) {
  std::ifstream in(path);
  if (!in) throw SuiteError("", std::string("cannot open ") + kind + " file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const SuiteError& error) {
    throw SuiteError("", path + ": " + error.what());
  }
}

}  // namespace

SuiteSpec parse_suite(const std::string& json_text) {
  const json::Value document = parse_document(json_text);

  Fields doc(document, "");
  SuiteSpec suite;
  suite.name = doc.required_str("suite");
  if (suite.name.empty()) throw SuiteError("suite", "suite name must be non-empty");
  check_label("suite", suite.name);  // the name prefixes every cell name

  suite.mode = parse_enum<SuiteSpec::Mode>(
      "mode", doc.str("mode", "batch"),
      {{"batch", SuiteSpec::Mode::Batch}, {"stream", SuiteSpec::Mode::Stream}});

  if (const json::Value* seeds = doc.member("seeds")) {
    Fields fields(*seeds, "seeds");
    suite.base_seed = static_cast<std::uint64_t>(
        fields.integer("base", 1, 0, std::numeric_limits<std::int64_t>::max()));
    suite.repetitions =
        static_cast<std::size_t>(fields.integer("repetitions", 3, 1, 100'000));
    fields.finish();
  }

  // Policies, validated against the registry so a typo fails at parse time.
  {
    const json::Value* value = doc.member("policies");
    if (!value) throw SuiteError("policies", "required key is missing");
    if (!value->is_array()) {
      throw SuiteError("policies",
                       std::string("expected an array, found ") + value->type_name());
    }
    const json::Array& entries = value->as_array();
    if (entries.empty()) throw SuiteError("policies", "needs at least one policy");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string path = "policies[" + std::to_string(i) + "]";
      if (!entries[i].is_string()) {
        throw SuiteError(path,
                         std::string("expected a string, found ") + entries[i].type_name());
      }
      const std::string& name = entries[i].as_string();
      try {
        (void)named_policy(name);
      } catch (const std::invalid_argument&) {
        std::string known;
        for (const std::string& entry : policy_names()) known += " " + entry;
        throw SuiteError(path, "unknown policy \"" + name + "\"; registry:" + known);
      }
      if (std::find(suite.policies.begin(), suite.policies.end(), name) !=
          suite.policies.end()) {
        throw SuiteError(path, "duplicate policy \"" + name + "\"");
      }
      suite.policies.push_back(name);
    }
  }

  parse_axis(doc, "topologies", /*required=*/true,
             [&suite](const json::Value& entry, const std::string& path) {
               Fields fields(entry, path);
               SuiteTopology topology;
               topology.spec = parse_topology(fields);
               topology.label = fields.str("name", to_string(topology.spec.kind));
               check_label(fields.path_of("name"), topology.label);
               fields.finish();
               suite.topologies.push_back(std::move(topology));
             });
  check_unique_labels("topologies", suite.topologies);

  parse_axis(doc, "workloads", /*required=*/suite.mode == SuiteSpec::Mode::Batch,
             [&suite](const json::Value& entry, const std::string& path) {
               Fields fields(entry, path);
               SuiteWorkload workload;
               workload.config = parse_workload(fields);
               workload.label = fields.str("name", to_string(workload.config.skew));
               check_label(fields.path_of("name"), workload.label);
               fields.finish();
               suite.workloads.push_back(std::move(workload));
             });
  check_unique_labels("workloads", suite.workloads);
  if (suite.mode == SuiteSpec::Mode::Stream && !suite.workloads.empty()) {
    throw SuiteError("workloads", "only valid when mode is \"batch\" (stream suites "
                                  "describe arrivals under \"traffic\")");
  }

  parse_axis(doc, "traffic", /*required=*/suite.mode == SuiteSpec::Mode::Stream,
             [&suite](const json::Value& entry, const std::string& path) {
               Fields fields(entry, path);
               SuiteTraffic traffic;
               traffic.config = parse_traffic(fields);
               traffic.label = fields.str(
                   "name", traffic.config.process == ArrivalProcess::OnOff ? "onoff"
                                                                           : "poisson");
               check_label(fields.path_of("name"), traffic.label);
               fields.finish();
               suite.traffic.push_back(std::move(traffic));
             });
  check_unique_labels("traffic", suite.traffic);
  if (suite.mode == SuiteSpec::Mode::Batch && !suite.traffic.empty()) {
    throw SuiteError("traffic", "only valid when mode is \"stream\" (batch suites "
                                "describe finite workloads under \"workloads\")");
  }

  parse_axis(doc, "engines", /*required=*/false,
             [&suite](const json::Value& entry, const std::string& path) {
               Fields fields(entry, path);
               SuiteEngine engine;
               engine.options = parse_engine(fields);
               engine.label = fields.str("name", default_engine_label(engine.options));
               check_label(fields.path_of("name"), engine.label);
               fields.finish();
               suite.engines.push_back(std::move(engine));
             });
  if (suite.engines.empty()) {
    suite.engines.push_back({default_engine_label(EngineOptions{}), EngineOptions{}});
  }
  check_unique_labels("engines", suite.engines);

  if (const json::Value* stream = doc.member("stream")) {
    if (suite.mode != SuiteSpec::Mode::Stream) {
      throw SuiteError("stream", "only valid when mode is \"stream\"");
    }
    Fields fields(*stream, "stream");
    suite.warmup_packets =
        static_cast<std::size_t>(fields.integer("warmup", 1000, 0, 100'000'000));
    suite.measure_packets =
        static_cast<std::size_t>(fields.integer("measure", 10000, 1, 1'000'000'000));
    suite.telemetry_window = static_cast<Time>(fields.integer("window", 256, 1, 1'000'000));
    suite.max_steps = static_cast<Time>(
        fields.integer("max_steps", 0, 0, std::numeric_limits<std::int64_t>::max()));
    suite.step_cap_factor = fields.real("step_cap_factor", 8.0, 1.0, 1000.0);
    fields.finish();
  }

  if (const json::Value* stages = doc.member("stages")) {
    if (suite.mode != SuiteSpec::Mode::Stream) {
      throw SuiteError("stages", "only valid when mode is \"stream\" (a stage "
                                 "schedule drives the open-loop StreamRunner)");
    }
    suite.stages = parse_stage_entries(*stages, "stages");
  }

  doc.finish();
  return suite;
}

SuiteSpec load_suite_file(const std::string& path) {
  return load_file(path, "suite", parse_suite);
}

std::vector<StageSpec> parse_stages_json(const std::string& json_text) {
  return parse_stage_entries(parse_document(json_text), "stages");
}

std::vector<StageSpec> load_stages_file(const std::string& path) {
  return load_file(path, "stages", parse_stages_json);
}

// --- normalized writer ------------------------------------------------------

namespace {

json::Value topology_to_json(const SuiteTopology& topology) {
  json::Object object;
  object.emplace_back("name", topology.label);
  object.emplace_back("kind", to_string(topology.spec.kind));
  switch (topology.spec.kind) {
    case TopologySpec::Kind::TwoTier: {
      const auto& net = topology.spec.two_tier;
      object.emplace_back("racks", static_cast<std::int64_t>(net.racks));
      object.emplace_back("lasers", static_cast<std::int64_t>(net.lasers_per_rack));
      object.emplace_back("photodetectors",
                          static_cast<std::int64_t>(net.photodetectors_per_rack));
      object.emplace_back("density", net.density);
      object.emplace_back("max_edge_delay", static_cast<std::int64_t>(net.max_edge_delay));
      object.emplace_back("attach_delay", static_cast<std::int64_t>(net.attach_delay));
      object.emplace_back("fixed_link_delay",
                          static_cast<std::int64_t>(net.fixed_link_delay));
      object.emplace_back("allow_self_edges", net.allow_self_edges);
      break;
    }
    case TopologySpec::Kind::Crossbar:
      object.emplace_back("ports", static_cast<std::int64_t>(topology.spec.crossbar_ports));
      break;
    case TopologySpec::Kind::Oversubscribed: {
      const auto& net = topology.spec.oversubscribed;
      object.emplace_back("racks", static_cast<std::int64_t>(net.racks));
      object.emplace_back("hot_racks", static_cast<std::int64_t>(net.hot_racks));
      object.emplace_back("hot_lasers", static_cast<std::int64_t>(net.hot_lasers));
      object.emplace_back("hot_photodetectors",
                          static_cast<std::int64_t>(net.hot_photodetectors));
      object.emplace_back("cold_lasers", static_cast<std::int64_t>(net.cold_lasers));
      object.emplace_back("cold_photodetectors",
                          static_cast<std::int64_t>(net.cold_photodetectors));
      object.emplace_back("density", net.density);
      object.emplace_back("fast_delay", static_cast<std::int64_t>(net.fast_delay));
      object.emplace_back("slow_delay", static_cast<std::int64_t>(net.slow_delay));
      object.emplace_back("slow_fraction", net.slow_fraction);
      object.emplace_back("attach_delay", static_cast<std::int64_t>(net.attach_delay));
      object.emplace_back("fixed_base_delay",
                          static_cast<std::int64_t>(net.fixed_base_delay));
      object.emplace_back("oversubscription", net.oversubscription);
      break;
    }
    case TopologySpec::Kind::Expander: {
      const auto& net = topology.spec.expander;
      object.emplace_back("racks", static_cast<std::int64_t>(net.racks));
      object.emplace_back("degree", static_cast<std::int64_t>(net.degree));
      object.emplace_back("lasers", static_cast<std::int64_t>(net.lasers_per_rack));
      object.emplace_back("photodetectors",
                          static_cast<std::int64_t>(net.photodetectors_per_rack));
      object.emplace_back("min_edge_delay", static_cast<std::int64_t>(net.min_edge_delay));
      object.emplace_back("max_edge_delay", static_cast<std::int64_t>(net.max_edge_delay));
      object.emplace_back("attach_delay", static_cast<std::int64_t>(net.attach_delay));
      object.emplace_back("fixed_link_delay",
                          static_cast<std::int64_t>(net.fixed_link_delay));
      break;
    }
    case TopologySpec::Kind::Rotor: {
      const auto& net = topology.spec.rotor;
      object.emplace_back("racks", static_cast<std::int64_t>(net.racks));
      object.emplace_back("ports", static_cast<std::int64_t>(net.ports_per_rack));
      object.emplace_back("matchings", static_cast<std::int64_t>(net.num_matchings));
      object.emplace_back("edge_delay", static_cast<std::int64_t>(net.edge_delay));
      object.emplace_back("attach_delay", static_cast<std::int64_t>(net.attach_delay));
      object.emplace_back("fixed_link_delay",
                          static_cast<std::int64_t>(net.fixed_link_delay));
      break;
    }
  }
  object.emplace_back("seed_salt", static_cast<std::int64_t>(topology.spec.seed_salt));
  object.emplace_back("fixed_wiring", topology.spec.fixed_wiring);
  return json::Value(std::move(object));
}

void shape_to_json(const WorkloadConfig& shape, json::Object& object) {
  object.emplace_back("skew", to_string(shape.skew));
  object.emplace_back("zipf_exponent", shape.zipf_exponent);
  object.emplace_back("hotspot_fraction", shape.hotspot_fraction);
  object.emplace_back("weights", to_string(shape.weights));
  object.emplace_back("weight_max", shape.weight_max);
  object.emplace_back("pareto_shape", shape.pareto_shape);
  object.emplace_back("elephant_fraction", shape.elephant_fraction);
}

json::Value workload_to_json(const SuiteWorkload& workload) {
  json::Object object;
  object.emplace_back("name", workload.label);
  object.emplace_back("packets", static_cast<std::int64_t>(workload.config.num_packets));
  object.emplace_back("rate", workload.config.arrival_rate);
  shape_to_json(workload.config, object);
  object.emplace_back("bursty", workload.config.bursty);
  object.emplace_back("burst_off_prob", workload.config.burst_off_prob);
  return json::Value(std::move(object));
}

json::Value traffic_to_json(const SuiteTraffic& traffic) {
  json::Object object;
  object.emplace_back("name", traffic.label);
  object.emplace_back(
      "process", traffic.config.process == ArrivalProcess::OnOff ? "onoff" : "poisson");
  object.emplace_back("rho", traffic.config.rho);
  object.emplace_back("capacity_model",
                      traffic.config.capacity_model == CapacityModel::MaxMatching
                          ? "max_matching"
                          : "ports");
  shape_to_json(traffic.config.shape, object);
  object.emplace_back("on_stay", traffic.config.on_stay);
  object.emplace_back("off_stay", traffic.config.off_stay);
  object.emplace_back("max_zero_demand_fraction", traffic.config.max_zero_demand_fraction);
  return json::Value(std::move(object));
}

template <typename Index>
json::Value indices_to_json(const std::vector<Index>& indices) {
  json::Array array;
  for (const Index index : indices) array.emplace_back(static_cast<std::int64_t>(index));
  return json::Value(std::move(array));
}

json::Value stage_to_json(const StageSpec& stage) {
  json::Object object;
  object.emplace_back("duration", static_cast<std::int64_t>(stage.duration));
  object.emplace_back("rho", stage.rho);
  object.emplace_back("on_stay", stage.on_stay);
  object.emplace_back("off_stay", stage.off_stay);
  object.emplace_back("kill_edges", indices_to_json(stage.mutation.kill_edges));
  object.emplace_back("restore_edges", indices_to_json(stage.mutation.restore_edges));
  object.emplace_back("kill_racks", indices_to_json(stage.mutation.kill_racks));
  object.emplace_back("restore_racks", indices_to_json(stage.mutation.restore_racks));
  object.emplace_back("speedup", static_cast<std::int64_t>(stage.mutation.speedup_rounds));
  object.emplace_back("capacity",
                      static_cast<std::int64_t>(stage.mutation.endpoint_capacity));
  object.emplace_back(
      "dead", stage.mutation.dead_policy == DeadPolicy::Requeue ? "requeue" : "drop");
  return json::Value(std::move(object));
}

json::Value engine_to_json(const SuiteEngine& engine) {
  json::Object object;
  object.emplace_back("name", engine.label);
  object.emplace_back("speedup", static_cast<std::int64_t>(engine.options.speedup_rounds));
  object.emplace_back("capacity",
                      static_cast<std::int64_t>(engine.options.endpoint_capacity));
  object.emplace_back("reconfig_delay",
                      static_cast<std::int64_t>(engine.options.reconfig_delay));
  object.emplace_back("audit", engine.options.audit);
  object.emplace_back("profile", engine.options.probe.enabled);
  return json::Value(std::move(object));
}

}  // namespace

std::string suite_to_json(const SuiteSpec& spec) {
  json::Object document;
  document.emplace_back("suite", spec.name);
  document.emplace_back("mode", spec.mode == SuiteSpec::Mode::Stream ? "stream" : "batch");
  {
    json::Object seeds;
    seeds.emplace_back("base", static_cast<std::int64_t>(spec.base_seed));
    seeds.emplace_back("repetitions", static_cast<std::int64_t>(spec.repetitions));
    document.emplace_back("seeds", json::Value(std::move(seeds)));
  }
  {
    json::Array policies;
    for (const std::string& policy : spec.policies) policies.emplace_back(policy);
    document.emplace_back("policies", json::Value(std::move(policies)));
  }
  {
    json::Array engines;
    for (const SuiteEngine& engine : spec.engines) engines.push_back(engine_to_json(engine));
    document.emplace_back("engines", json::Value(std::move(engines)));
  }
  {
    json::Array topologies;
    for (const SuiteTopology& topology : spec.topologies) {
      topologies.push_back(topology_to_json(topology));
    }
    document.emplace_back("topologies", json::Value(std::move(topologies)));
  }
  if (spec.mode == SuiteSpec::Mode::Batch) {
    json::Array workloads;
    for (const SuiteWorkload& workload : spec.workloads) {
      workloads.push_back(workload_to_json(workload));
    }
    document.emplace_back("workloads", json::Value(std::move(workloads)));
  } else {
    json::Array traffic;
    for (const SuiteTraffic& entry : spec.traffic) traffic.push_back(traffic_to_json(entry));
    document.emplace_back("traffic", json::Value(std::move(traffic)));
    json::Object stream;
    stream.emplace_back("warmup", static_cast<std::int64_t>(spec.warmup_packets));
    stream.emplace_back("measure", static_cast<std::int64_t>(spec.measure_packets));
    stream.emplace_back("window", static_cast<std::int64_t>(spec.telemetry_window));
    stream.emplace_back("max_steps", static_cast<std::int64_t>(spec.max_steps));
    stream.emplace_back("step_cap_factor", spec.step_cap_factor);
    document.emplace_back("stream", json::Value(std::move(stream)));
    if (!spec.stages.empty()) {
      json::Array stages;
      for (const StageSpec& stage : spec.stages) stages.push_back(stage_to_json(stage));
      document.emplace_back("stages", json::Value(std::move(stages)));
    }
  }
  return json::dump(json::Value(std::move(document)), 2) + "\n";
}

// --- grid expansion ---------------------------------------------------------

namespace {

/// The topologies x variants x engines expansion behind both grids: names
/// each cell "<suite>/<topology>/<variant>/<engine>" and copies the fields
/// both cell kinds share; `fill` sets the mode's own.
template <typename Cell, typename Variant, typename Fill>
std::vector<Cell> expand_grid(const SuiteSpec& spec, const std::vector<Variant>& variants,
                              const Fill& fill) {
  std::vector<Cell> grid;
  grid.reserve(spec.topologies.size() * variants.size() * spec.engines.size());
  for (const SuiteTopology& topology : spec.topologies) {
    for (const Variant& variant : variants) {
      for (const SuiteEngine& engine : spec.engines) {
        Cell cell;
        cell.name =
            spec.name + "/" + topology.label + "/" + variant.label + "/" + engine.label;
        cell.topology = topology.spec;
        cell.engine = engine.options;
        cell.base_seed = spec.base_seed;
        cell.repetitions = spec.repetitions;
        fill(cell, variant.config);
        grid.push_back(std::move(cell));
      }
    }
  }
  return grid;
}

}  // namespace

std::vector<ScenarioSpec> suite_batch_grid(const SuiteSpec& spec) {
  if (spec.mode != SuiteSpec::Mode::Batch) {
    throw SuiteError("mode", "suite_batch_grid needs a batch suite");
  }
  const auto fill = [](ScenarioSpec& cell, const WorkloadConfig& workload) {
    cell.workload = workload;
  };
  return expand_grid<ScenarioSpec>(spec, spec.workloads, fill);
}

std::vector<StreamSpec> suite_stream_grid(const SuiteSpec& spec) {
  if (spec.mode != SuiteSpec::Mode::Stream) {
    throw SuiteError("mode", "suite_stream_grid needs a stream suite");
  }
  const auto fill = [&spec](StreamSpec& cell, const TrafficConfig& traffic) {
    cell.traffic = traffic;
    cell.traffic.speedup_rounds = cell.engine.speedup_rounds;
    cell.warmup_packets = spec.warmup_packets;
    cell.measure_packets = spec.measure_packets;
    cell.telemetry_window = spec.telemetry_window;
    cell.max_steps = spec.max_steps;
    cell.step_cap_factor = spec.step_cap_factor;
    cell.stages = spec.stages;
  };
  return expand_grid<StreamSpec>(spec, spec.traffic, fill);
}

// --- execution --------------------------------------------------------------

SuiteRunner::SuiteRunner(SuiteSpec spec) : spec_(std::move(spec)) {}

std::size_t SuiteRunner::grid_cells() const noexcept {
  const std::size_t axis = spec_.mode == SuiteSpec::Mode::Batch ? spec_.workloads.size()
                                                                : spec_.traffic.size();
  return spec_.topologies.size() * axis * spec_.engines.size();
}

namespace {

/// Axis labels of a cell, recovered from run order (topology-major, then
/// workload/traffic, then engine -- matching the grid expansion loops).
struct CellAxes {
  const SuiteTopology* topology;
  std::string variant;  ///< workload or traffic label
  const SuiteEngine* engine;
};

std::vector<CellAxes> cell_axes(const SuiteSpec& spec) {
  std::vector<CellAxes> axes;
  const std::size_t variants = spec.mode == SuiteSpec::Mode::Batch ? spec.workloads.size()
                                                                   : spec.traffic.size();
  for (const SuiteTopology& topology : spec.topologies) {
    for (std::size_t v = 0; v < variants; ++v) {
      const std::string& variant = spec.mode == SuiteSpec::Mode::Batch
                                       ? spec.workloads[v].label
                                       : spec.traffic[v].label;
      for (const SuiteEngine& engine : spec.engines) {
        axes.push_back({&topology, variant, &engine});
      }
    }
  }
  return axes;
}

json::Object line_header(const SuiteSpec& spec, const CellAxes& axes,
                         const std::string& policy, const std::string& scenario) {
  json::Object params;
  params.emplace_back("scenario", scenario);
  params.emplace_back("topology", axes.topology->label);
  params.emplace_back("kind", to_string(axes.topology->spec.kind));
  params.emplace_back(spec.mode == SuiteSpec::Mode::Batch ? "workload" : "traffic",
                      axes.variant);
  params.emplace_back("engine", axes.engine->label);
  params.emplace_back("mode", spec.mode == SuiteSpec::Mode::Batch ? "batch" : "stream");
  params.emplace_back("base_seed", static_cast<std::int64_t>(spec.base_seed));
  params.emplace_back("reps", static_cast<std::int64_t>(spec.repetitions));

  json::Object line;
  line.emplace_back("bench", spec.name);
  line.emplace_back("name", policy);
  line.emplace_back("params", json::Value(std::move(params)));
  return line;
}

}  // namespace

std::vector<std::string> SuiteRunner::cell_names() const {
  const std::vector<CellAxes> axes = cell_axes(spec_);
  std::vector<std::string> names;
  names.reserve(axes.size() * spec_.policies.size());
  for (const CellAxes& cell : axes) {
    for (const std::string& policy : spec_.policies) {
      names.push_back(spec_.name + "/" + cell.topology->label + "/" + cell.variant + "/" +
                      cell.engine->label + " x " + policy);
    }
  }
  return names;
}

namespace {

/// "profile" cells: per-phase self time (summed across repetitions) as
/// phase_<name>_ns metrics, so suite diffs can track where time went.
void append_phase_metrics(json::Object& line, const ProbeReport& probe) {
  if (!probe.enabled) return;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    line.emplace_back(std::string("phase_") + to_string(static_cast<Phase>(i)) + "_ns",
                      static_cast<std::int64_t>(probe.phase_self_ns[i]));
  }
}

/// Staged cells: one "stages" array with per-stage recovery metrics
/// aggregated across repetitions -- counts summed, entry backlog and
/// time-to-drain averaged (drain only over the reps that did drain;
/// drained_reps says how many that was), latency percentiles over the
/// merged per-stage histograms (the -1 sentinel when nothing completed).
void append_stage_metrics(json::Object& line, const StreamResult& result) {
  if (result.repetitions.empty() || result.repetitions.front().stages.empty()) return;
  const std::size_t num_stages = result.repetitions.front().stages.size();
  const auto reps = static_cast<double>(result.repetitions.size());
  json::Array stages;
  for (std::size_t k = 0; k < num_stages; ++k) {
    std::uint64_t offered = 0, served = 0, dropped = 0, requeued = 0;
    double entry_backlog = 0.0, drain = 0.0;
    std::int64_t drained_reps = 0;
    LatencyHistogram latency;
    for (const StreamRepOutcome& rep : result.repetitions) {
      const StageOutcome& stage = rep.stages[k];
      offered += stage.offered;
      served += stage.served;
      dropped += stage.dropped;
      requeued += stage.requeued;
      entry_backlog += static_cast<double>(stage.entry_backlog);
      if (stage.drain_steps >= 0) {
        drain += static_cast<double>(stage.drain_steps);
        ++drained_reps;
      }
      latency.merge(stage.latency);
    }
    const StageOutcome& first = result.repetitions.front().stages[k];
    json::Object object;
    object.emplace_back("stage", static_cast<std::int64_t>(k));
    object.emplace_back("start", static_cast<std::int64_t>(first.start));
    object.emplace_back("edges_killed", static_cast<std::int64_t>(first.edges_killed));
    object.emplace_back("edges_restored",
                        static_cast<std::int64_t>(first.edges_restored));
    object.emplace_back("offered", static_cast<std::int64_t>(offered));
    object.emplace_back("served", static_cast<std::int64_t>(served));
    object.emplace_back("dropped", static_cast<std::int64_t>(dropped));
    object.emplace_back("requeued", static_cast<std::int64_t>(requeued));
    object.emplace_back("entry_backlog_mean", entry_backlog / reps);
    object.emplace_back("drained_reps", drained_reps);
    object.emplace_back("drain_steps_mean",
                        drained_reps > 0 ? drain / static_cast<double>(drained_reps)
                                         : -1.0);
    object.emplace_back("p50", latency.empty() ? std::int64_t{-1}
                                               : static_cast<std::int64_t>(latency.p50()));
    object.emplace_back("p99", latency.empty() ? std::int64_t{-1}
                                               : static_cast<std::int64_t>(latency.p99()));
    stages.push_back(json::Value(std::move(object)));
  }
  line.emplace_back("stages", json::Value(std::move(stages)));
}

/// Batch cell metrics: cost summary and mean wall clock.
void append_metrics(json::Object& line, const ScenarioResult& result) {
  line.emplace_back("total_cost", result.cost.mean());
  line.emplace_back("wall_ms", result.wall_ms.mean());
  line.emplace_back("cost_stddev", result.cost.stddev());
  line.emplace_back("cost_min", result.cost.min());
  line.emplace_back("cost_max", result.cost.max());
  append_phase_metrics(line, result.probe);
}

/// Stream cell metrics: cost, throughput, latency percentiles, backlog,
/// truncation flags, drop/requeue counts and per-stage recovery.
void append_metrics(json::Object& line, const StreamResult& result) {
  double total_cost = 0.0;
  for (const StreamRepOutcome& rep : result.repetitions) total_cost += rep.total_cost;
  if (!result.repetitions.empty()) {
    total_cost /= static_cast<double>(result.repetitions.size());
  }
  line.emplace_back("total_cost", total_cost);
  line.emplace_back("wall_ms", result.wall_ms.mean());
  line.emplace_back("throughput", result.throughput.mean());
  line.emplace_back("measured_rho", result.measured_rho.mean());
  // `latency` folds converged repetitions only (truncated reps are a
  // censored sample, kept apart in latency_truncated); when every rep
  // truncated, the percentiles have no sample and emit the -1 sentinel.
  line.emplace_back("mean_latency", result.latency.mean());
  const bool has_latency = !result.latency.empty();
  line.emplace_back("p50", has_latency ? static_cast<std::int64_t>(result.latency.p50())
                                       : std::int64_t{-1});
  line.emplace_back("p95", has_latency ? static_cast<std::int64_t>(result.latency.p95())
                                       : std::int64_t{-1});
  line.emplace_back("p99", has_latency ? static_cast<std::int64_t>(result.latency.p99())
                                       : std::int64_t{-1});
  line.emplace_back("backlog", result.backlog.mean());
  line.emplace_back("truncated_reps", static_cast<std::int64_t>(result.truncated_reps));
  {
    json::Array flags;
    for (const StreamRepOutcome& rep : result.repetitions) flags.emplace_back(rep.truncated);
    line.emplace_back("rep_truncated", json::Value(std::move(flags)));
  }
  line.emplace_back("zero_demand", static_cast<std::int64_t>(result.zero_demand));
  line.emplace_back("dropped", static_cast<std::int64_t>(result.dropped));
  line.emplace_back("requeued", static_cast<std::int64_t>(result.requeued));
  append_stage_metrics(line, result);
  append_phase_metrics(line, result.probe);
}

/// One result row of either cell kind: the cell header plus the kind's
/// metrics, or under isolate the structured failure ("status": "failed",
/// exception type + message, the losing repetition and how many attempts
/// it got). Healthy rows carry no "status" key, so downstream strict
/// parsers (perf_diff) reject mixed streams loudly instead of averaging
/// error rows into metrics.
template <typename Result>
std::string render_row(const SuiteSpec& spec, const CellAxes& axes,
                       const Result& result) {
  json::Object line = line_header(spec, axes, result.policy, result.scenario);
  const CellError& error = result.error;
  if (error.failed) {
    line.emplace_back("status", "failed");
    line.emplace_back("error_type", error.type);
    line.emplace_back("error_message", error.message);
    line.emplace_back("repetition", static_cast<std::int64_t>(error.repetition));
    line.emplace_back("attempts", static_cast<std::int64_t>(error.attempts));
  } else {
    append_metrics(line, result);
  }
  return json::dump(json::Value(std::move(line)));
}

/// Parses a journal's text. Errors leave without the file name, which
/// load_file prefixes.
SuiteJournal parse_journal(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) throw SuiteError("", "empty journal");

  const auto parse_line = [](const std::string& entry, std::size_t index) {
    try {
      return json::parse(entry);
    } catch (const json::ParseError& error) {
      throw SuiteError("", "journal line " + std::to_string(index + 1) +
                               " is not valid JSON: " + error.what());
    }
  };

  const json::Value header_doc = parse_line(lines.front(), 0);
  SuiteJournal journal;
  Fields header(header_doc, "");
  const json::Value* tag = header.member("rdcn_suite_journal");
  if (tag == nullptr || !tag->is_integer() || tag->as_integer() != 1) {
    throw SuiteError("rdcn_suite_journal", "missing or unsupported journal version");
  }
  header.required_str("suite");  // informational; the spec text is authoritative
  const std::int64_t declared_cells =
      header.integer("cells", -1, -1, std::numeric_limits<std::int64_t>::max());
  if (declared_cells < 0) {
    throw SuiteError("cells", "required key is missing");
  }
  journal.spec_json = header.required_str("spec");
  header.finish();

  try {
    journal.spec = parse_suite(journal.spec_json);
  } catch (const SuiteError& error) {
    throw SuiteError("", std::string("embedded spec is invalid: ") + error.what());
  }
  const SuiteRunner probe(journal.spec);
  const std::size_t total = probe.cells();
  if (static_cast<std::size_t>(declared_cells) != total) {
    throw SuiteError("", "header declares " + std::to_string(declared_cells) +
                             " cells but the embedded spec expands to " +
                             std::to_string(total));
  }
  const std::vector<std::string> names = probe.cell_names();

  journal.rows.assign(total, std::string());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const json::Value entry_doc = parse_line(lines[i], i);
    try {
      Fields entry(entry_doc, "");
      const std::int64_t cell =
          entry.integer("cell", -1, -1, static_cast<std::int64_t>(total) - 1);
      if (cell < 0) throw SuiteError("cell", "required key is missing or out of range");
      const std::string name = entry.required_str("name");
      const std::string row = entry.required_str("row");
      entry.finish();
      const auto index = static_cast<std::size_t>(cell);
      if (name != names[index]) {
        throw SuiteError("name", "cell " + std::to_string(cell) + " is named \"" +
                                     names[index] + "\" in the spec, not \"" + name + "\"");
      }
      if (!journal.rows[index].empty()) {
        throw SuiteError("cell", "cell " + std::to_string(cell) + " recorded twice");
      }
      json::parse(row);  // rows must themselves be strict JSON
      journal.rows[index] = row;
    } catch (const json::ParseError& error) {
      throw SuiteError("", "journal line " + std::to_string(i + 1) +
                               " row is not valid JSON: " + error.what());
    } catch (const SuiteError& error) {
      throw SuiteError("", "journal line " + std::to_string(i + 1) + ": " + error.what());
    }
  }
  return journal;
}

}  // namespace

SuiteJournal load_suite_journal(const std::string& path) {
  return load_file(path, "journal", parse_journal);
}

std::vector<std::string> SuiteRunner::run(const SuiteRunOptions& options,
                                          const SuiteJournal* resume) const {
  const std::vector<CellAxes> axes = cell_axes(spec_);
  const std::vector<std::string> names = cell_names();
  const std::size_t policies = spec_.policies.size();
  const std::size_t total = names.size();
  const std::string spec_json = suite_to_json(spec_);

  std::vector<std::string> rows(total);
  if (resume != nullptr) {
    if (resume->spec_json != spec_json) {
      throw SuiteError("", "journal does not belong to this suite (normalized specs "
                           "differ); resume refused");
    }
    if (resume->rows.size() != total) {
      throw SuiteError("", "journal records " + std::to_string(resume->rows.size()) +
                               " cells, suite has " + std::to_string(total));
    }
    rows = resume->rows;
  }

  // The journal is the whole manifest, rewritten via write-temp-fsync-
  // rename after every completed cell: at any instant the file on disk is
  // a complete, valid journal, so SIGKILL at any byte loses at most the
  // in-flight cells. Rows are stored verbatim, which is what makes a
  // resumed run's merged output bit-identical to an uninterrupted one.
  std::mutex journal_mutex;
  const auto write_journal = [&]() {
    json::Object header;
    header.emplace_back("rdcn_suite_journal", std::int64_t{1});
    header.emplace_back("suite", spec_.name);
    header.emplace_back("cells", static_cast<std::int64_t>(total));
    header.emplace_back("spec", spec_json);
    std::string text = json::dump(json::Value(std::move(header)));
    text += '\n';
    for (std::size_t i = 0; i < total; ++i) {
      if (rows[i].empty()) continue;
      json::Object entry;
      entry.emplace_back("cell", static_cast<std::int64_t>(i));
      entry.emplace_back("name", names[i]);
      entry.emplace_back("row", rows[i]);
      text += json::dump(json::Value(std::move(entry)));
      text += '\n';
    }
    atomic_write_file(options.journal, text);
  };
  if (!options.journal.empty()) {
    // Persist the header (plus any resumed rows) up front: a run killed
    // before its first cell completes still leaves a resumable journal.
    const std::lock_guard<std::mutex> lock(journal_mutex);
    write_journal();
  }
  const auto record = [&](std::size_t global, std::string row) {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    rows[global] = std::move(row);
    if (!options.journal.empty()) write_journal();
  };

  BatchRunner runner(options.threads);
  runner.set_policy(options.policy);
  // Only cells the journal does not already record are enqueued;
  // global_of maps the runner's dense cell index back to the suite index.
  std::vector<std::size_t> global_of;

  // The two modes differ only in the grid type and the BatchRunner queue
  // (add / run vs add_stream / run_streams); render_row picks the metrics.
  const auto enqueue_grid = [&](const auto& grid, const auto& enqueue) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      for (std::size_t p = 0; p < policies; ++p) {
        const std::size_t global = g * policies + p;
        if (!rows[global].empty()) continue;
        enqueue(grid[g], named_policy(spec_.policies[p]));
        global_of.push_back(global);
      }
    }
  };
  const auto record_cell = [&](std::size_t cell, const auto& result) {
    const std::size_t global = global_of[cell];
    record(global, render_row(spec_, axes[global / policies], result));
  };
  if (spec_.mode == SuiteSpec::Mode::Batch) {
    const auto add = [&](const ScenarioSpec& cell, PolicyFactory policy) {
      runner.add(cell, std::move(policy));
    };
    enqueue_grid(suite_batch_grid(spec_), add);
    runner.run(record_cell);
  } else {
    const auto add = [&](const StreamSpec& cell, PolicyFactory policy) {
      runner.add_stream(cell, std::move(policy));
    };
    enqueue_grid(suite_stream_grid(spec_), add);
    runner.run_streams(record_cell);
  }

  for (std::size_t i = 0; i < total; ++i) {
    if (rows[i].empty()) {
      throw SuiteError("", "internal: cell " + std::to_string(i) + " (" + names[i] +
                               ") produced no row");
    }
  }
  return rows;
}

}  // namespace rdcn
