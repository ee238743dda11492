#include "run/suite.hpp"

#include <algorithm>
#include <concepts>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "util/atomic_file.hpp"
#include "util/enum_names.hpp"
#include "util/json.hpp"

namespace rdcn {

/// Suite modes are spelled only in suite documents and result rows.
std::span<const EnumName<SuiteSpec::Mode>> enum_names(SuiteSpec::Mode) {
  static constexpr EnumName<SuiteSpec::Mode> kNames[] = {
      {SuiteSpec::Mode::Batch, "batch"}, {SuiteSpec::Mode::Stream, "stream"}};
  return kNames;
}

namespace {

// --- strict value reading ---------------------------------------------------

[[noreturn]] void type_error(const std::string& path, const char* expected,
                             const json::Value& found) {
  throw SuiteError(path,
                   std::string("expected ") + expected + ", found " + found.type_name());
}

std::string element_path(const std::string& path, std::size_t index) {
  return path + "[" + std::to_string(index) + "]";
}

const json::Array& array_at(const json::Value& value, const std::string& path) {
  if (!value.is_array()) type_error(path, "an array", value);
  return value.as_array();
}

std::int64_t integer_at(const json::Value& value, const std::string& path,
                        std::int64_t lo, std::int64_t hi) {
  if (!value.is_integer()) type_error(path, "an integer", value);
  const std::int64_t parsed = value.as_integer();
  if (parsed < lo || parsed > hi) {
    throw SuiteError(path, std::to_string(parsed) + " is out of range [" +
                               std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return parsed;
}

/// Wraps one JSON object: typed getters with range checks, every error
/// carrying the full path, and unknown-key rejection in finish().
class Fields {
 public:
  Fields(const json::Value& value, std::string path) : path_(std::move(path)) {
    if (!value.is_object()) type_error(path_, "an object", value);
    object_ = &value.as_object();
  }

  std::string path_of(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const json::Value* member(const char* key) {
    if (std::find(allowed_.begin(), allowed_.end(), key) == allowed_.end()) {
      allowed_.emplace_back(key);
    }
    for (const json::Member& entry : *object_) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  std::string str(const char* key, const std::string& fallback) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_string()) type_error(path_of(key), "a string", *value);
    return value->as_string();
  }

  std::string required_str(const char* key) {
    if (!member(key)) throw SuiteError(path_of(key), "required key is missing");
    return str(key, "");
  }

  std::int64_t integer(const char* key, std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) {
    const json::Value* value = member(key);
    return value ? integer_at(*value, path_of(key), lo, hi) : fallback;
  }

  double real(const char* key, double fallback, double lo, double hi) {
    const json::Value* value = member(key);
    if (!value) return fallback;
    if (!value->is_number()) type_error(path_of(key), "a number", *value);
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
    if (!value->is_bool()) type_error(path_of(key), "true or false", *value);
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

// --- the two walkers of a schema -------------------------------------------
//
// Every suite spec struct is described once, by a visit(io, value) field
// list further down: each entry names its key, member, type and range.
// Reader walks a list to parse strictly, Writer walks the same list to
// emit the normalized form, so a key cannot be read one way and written
// another. Cross-field rules go through io.check(), which only the Reader
// enforces.

/// Labels name result cells "<suite>/<topology>/<variant>/<engine>".
template <class IO>
void check_label(IO& io, const char* key, const std::string& label) {
  io.check(key, !label.empty(), [] { return "labels must be non-empty"; });
  io.check(key, label.find('/') == std::string::npos, [&label] {
    return "label \"" + label + "\" may not contain '/' (labels compose cell names)";
  });
}

/// The key every axis entry's label is read from and written to.
constexpr const char* kLabelKey = "name";

template <typename Entry>
void check_unique_labels(const std::string& axis, const std::vector<Entry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[i].label == entries[j].label) {
        throw SuiteError(element_path(axis, j) + "." + kLabelKey,
                         "duplicate label \"" + entries[j].label +
                             "\"; give each axis entry a distinct \"name\"");
      }
    }
  }
}

std::vector<StageSpec> read_stages(const json::Value& value, const std::string& path);

/// Parses through a visit() list: an absent key keeps the member's
/// default, a present one is type- and range-checked, and finish()
/// rejects every key the list did not name.
class Reader {
 public:
  Reader(const json::Value& value, std::string path) : fields_(value, std::move(path)) {}

  template <std::integral Int>
  void field(const char* key, Int& member, std::int64_t lo, std::int64_t hi) {
    member =
        static_cast<Int>(fields_.integer(key, static_cast<std::int64_t>(member), lo, hi));
  }
  void field(const char* key, double& member, double lo, double hi) {
    member = fields_.real(key, member, lo, hi);
  }
  void field(const char* key, bool& member) { member = fields_.boolean(key, member); }
  void field(const char* key, std::string& member) { member = fields_.str(key, member); }

  template <NamedEnum Enum>
  void field(const char* key, Enum& member) {
    const std::string text = fields_.str(key, to_string(member));
    const std::optional<Enum> value = from_string<Enum>(text);
    if (!value) {
      throw SuiteError(fields_.path_of(key),
                       "unknown value \"" + text + "\"; known:" + known_names<Enum>());
    }
    member = *value;
  }

  /// An edge or rack index list; element errors name "path.key[j]".
  template <class Index>
  void field(const char* key, std::vector<Index>& member, std::int64_t hi) {
    const json::Value* value = fields_.member(key);
    if (!value) return;
    const std::string path = fields_.path_of(key);
    const json::Array& elements = array_at(*value, path);
    member.clear();
    for (std::size_t i = 0; i < elements.size(); ++i) {
      member.push_back(
          static_cast<Index>(integer_at(elements[i], element_path(path, i), 0, hi)));
    }
  }

  template <class T>
  void required(const char* key, T& member) {
    if (!fields_.member(key)) {
      throw SuiteError(fields_.path_of(key), "required key is missing");
    }
    field(key, member);
  }

  /// An axis entry's label, resolved after its config so the default can
  /// derive from it.
  void label(const char* key, std::string& member, const std::string& fallback) {
    member = fields_.str(key, fallback);
    check_label(*this, key, member);
  }

  template <class Message>
  void check(const char* key, bool ok, const Message& message) const {
    if (!ok) throw SuiteError(fields_.path_of(key), message());
  }

  /// A nested object of plain fields ("seeds", "stream").
  template <class Visit>
  void block(const char* key, const char* misplaced, const Visit& visit_block) {
    const json::Value* value = placed(key, misplaced);
    if (!value) return;
    Reader reader(*value, fields_.path_of(key));
    visit_block(reader);
    reader.finish();
  }

  /// A grid axis: labelled entries, unique per axis. `misplaced` (set when
  /// the suite's mode has no use for the axis) rejects a non-empty one.
  template <class Entry>
  void axis(const char* key, std::vector<Entry>& entries, bool required,
            const char* misplaced) {
    const json::Value* value = fields_.member(key);
    const std::string path = fields_.path_of(key);
    if (!value) {
      if (required) throw SuiteError(path, "required key is missing");
      return;
    }
    const json::Array& elements = array_at(*value, path);
    if (required && elements.empty()) throw SuiteError(path, "needs at least one entry");
    for (std::size_t i = 0; i < elements.size(); ++i) {
      Reader reader(elements[i], element_path(path, i));
      visit(reader, entries.emplace_back());
      reader.finish();
    }
    check_unique_labels(path, entries);
    if (misplaced && !entries.empty()) throw SuiteError(path, misplaced);
  }

  void stages(const char* key, std::vector<StageSpec>& schedule, const char* misplaced) {
    if (const json::Value* value = placed(key, misplaced)) {
      schedule = read_stages(*value, fields_.path_of(key));
    }
  }

  /// Registry policy names: required, non-empty, no repeats. Validated
  /// here so a typo fails at parse time.
  void policies(const char* key, std::vector<std::string>& names) {
    const json::Value* value = fields_.member(key);
    const std::string path = fields_.path_of(key);
    if (!value) throw SuiteError(path, "required key is missing");
    const json::Array& elements = array_at(*value, path);
    if (elements.empty()) throw SuiteError(path, "needs at least one policy");
    for (std::size_t i = 0; i < elements.size(); ++i) {
      const std::string at = element_path(path, i);
      if (!elements[i].is_string()) type_error(at, "a string", elements[i]);
      const std::string& name = elements[i].as_string();
      try {
        (void)named_policy(name);
      } catch (const std::invalid_argument&) {
        std::string known;
        for (const std::string& entry : policy_names()) known += " " + entry;
        throw SuiteError(at, "unknown policy \"" + name + "\"; registry:" + known);
      }
      if (std::find(names.begin(), names.end(), name) != names.end()) {
        throw SuiteError(at, "duplicate policy \"" + name + "\"");
      }
      names.push_back(name);
    }
  }

  void finish() const { fields_.finish(); }

 private:
  /// The key's value, or nullptr; a key the suite's mode forbids
  /// (`misplaced` set) is an error when present at all.
  const json::Value* placed(const char* key, const char* misplaced) {
    const json::Value* value = fields_.member(key);
    if (value && misplaced) throw SuiteError(fields_.path_of(key), misplaced);
    return value;
  }

  Fields fields_;
};

/// Emits through a visit() list: every key in list order with its value,
/// defaults included -- the normalized form.
class Writer {
 public:
  template <class T, class... Range>
  void field(const char* key, const T& member, const Range&... /*range*/) {
    object_.emplace_back(key, encode(member));
  }

  template <class T>
  void required(const char* key, const T& member) {
    field(key, member);
  }

  /// Labels lead their object, though the reader resolves them last.
  void label(const char* key, const std::string& member,
             const std::string& /*fallback*/) {
    object_.emplace(object_.begin(), key, member);
  }

  template <class Message>
  void check(const char* /*key*/, bool /*ok*/, const Message& /*message*/) const {}

  template <class Visit>
  void block(const char* key, const char* misplaced, const Visit& visit_block) {
    if (misplaced) return;
    Writer writer;
    visit_block(writer);
    object_.emplace_back(key, writer.take());
  }

  template <class Entry>
  void axis(const char* key, std::vector<Entry>& entries, bool /*required*/,
            const char* misplaced) {
    if (!misplaced) object_.emplace_back(key, list(entries));
  }

  void stages(const char* key, std::vector<StageSpec>& schedule, const char* misplaced) {
    if (!misplaced && !schedule.empty()) object_.emplace_back(key, list(schedule));
  }

  void policies(const char* key, const std::vector<std::string>& names) {
    field(key, names);
  }

  json::Value take() { return json::Value(std::move(object_)); }

 private:
  template <class Entry>
  static json::Value list(std::vector<Entry>& entries) {
    json::Array array;
    for (Entry& entry : entries) {
      Writer writer;
      visit(writer, entry);
      array.push_back(writer.take());
    }
    return json::Value(std::move(array));
  }

  template <class T>
  static json::Value encode(const T& value) {
    if constexpr (std::is_enum_v<T>) {
      return to_string(value);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      return static_cast<std::int64_t>(value);
    } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                         std::is_same_v<T, std::string>) {
      return value;
    } else {  // an index or name list
      json::Array array;
      for (const auto& element : value) array.push_back(encode(element));
      return json::Value(std::move(array));
    }
  }

  json::Object object_;
};

// --- the schema -------------------------------------------------------------

constexpr std::int64_t kMaxDelay = 1'000'000;
constexpr std::int64_t kMaxPorts = 256;
constexpr std::int64_t kMaxRacks = 4096;
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
/// Stage edge indices are checked against the topology at run time
/// (Engine::apply_mutation -- the grid may span several topologies); this
/// cap only rejects nonsense.
constexpr std::int64_t kMaxEdgeIndex = 100'000'000;

template <class IO>
void at_most(IO& io, const char* key, std::int64_t value, std::int64_t bound,
             const char* bound_name, const char* note = "") {
  io.check(key, value <= bound, [&] {
    return std::to_string(value) + " exceeds " + bound_name + " (" +
           std::to_string(bound) + ")" + note;
  });
}

template <class IO>
void at_least(IO& io, const char* key, std::int64_t value, std::int64_t bound,
              const char* bound_name) {
  io.check(key, value >= bound, [&] {
    return std::to_string(value) + " is below " + bound_name + " (" +
           std::to_string(bound) + ")";
  });
}

/// Stage traffic overrides: the range admits the -1 "inherit" sentinel,
/// this rejects the dead zone between it and the legal values.
template <class IO>
void inherit_or(IO& io, const char* key, double value, const char* requirement) {
  io.check(key, value == -1.0 || value > 0.0, [requirement] {
    return std::string(requirement) + ", or -1 to inherit the traffic axis";
  });
}

template <class IO>
void visit(IO& io, TwoTierConfig& net) {
  io.field("racks", net.racks, 2, kMaxRacks);
  io.field("lasers", net.lasers_per_rack, 1, kMaxPorts);
  io.field("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts);
  io.field("density", net.density, 0.0, 1.0);
  io.field("max_edge_delay", net.max_edge_delay, 1, kMaxDelay);
  io.field("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.field("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
  io.field("allow_self_edges", net.allow_self_edges);
}

template <class IO>
void visit(IO& io, OversubscribedConfig& net) {
  io.field("racks", net.racks, 2, kMaxRacks);
  io.field("hot_racks", net.hot_racks, 0, kMaxRacks);
  at_most(io, "hot_racks", net.hot_racks, net.racks, "racks");
  io.field("hot_lasers", net.hot_lasers, 1, kMaxPorts);
  io.field("hot_photodetectors", net.hot_photodetectors, 1, kMaxPorts);
  io.field("cold_lasers", net.cold_lasers, 1, kMaxPorts);
  io.field("cold_photodetectors", net.cold_photodetectors, 1, kMaxPorts);
  io.field("density", net.density, 0.0, 1.0);
  io.field("fast_delay", net.fast_delay, 1, kMaxDelay);
  io.field("slow_delay", net.slow_delay, 1, kMaxDelay);
  at_least(io, "slow_delay", net.slow_delay, net.fast_delay, "fast_delay");
  io.field("slow_fraction", net.slow_fraction, 0.0, 1.0);
  io.field("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.field("fixed_base_delay", net.fixed_base_delay, 0, kMaxDelay);
  io.field("oversubscription", net.oversubscription, 1.0, 64.0);
}

template <class IO>
void visit(IO& io, ExpanderConfig& net) {
  io.field("racks", net.racks, 2, kMaxRacks);
  io.field("degree", net.degree, 1, kMaxRacks);
  at_most(io, "degree", net.degree, net.racks - 1, "racks - 1");
  io.field("lasers", net.lasers_per_rack, 1, kMaxPorts);
  io.field("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts);
  io.field("min_edge_delay", net.min_edge_delay, 1, kMaxDelay);
  io.field("max_edge_delay", net.max_edge_delay, 1, kMaxDelay);
  at_least(io, "max_edge_delay", net.max_edge_delay, net.min_edge_delay,
           "min_edge_delay");
  io.field("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.field("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
}

template <class IO>
void visit(IO& io, RotorConfig& net) {
  io.field("racks", net.racks, 2, kMaxRacks);
  io.field("ports", net.ports_per_rack, 1, kMaxPorts);
  io.field("matchings", net.num_matchings, 0, kMaxRacks);
  at_most(io, "matchings", net.num_matchings, net.racks - 1, "racks - 1",
          "; 0 selects all offsets");
  io.field("edge_delay", net.edge_delay, 1, kMaxDelay);
  io.field("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.field("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
}

/// The kind picks which config's keys the object holds.
template <class IO>
void visit(IO& io, TopologySpec& spec) {
  io.required("kind", spec.kind);
  switch (spec.kind) {
    case TopologySpec::Kind::TwoTier:
      visit(io, spec.two_tier);
      break;
    case TopologySpec::Kind::Crossbar:
      io.field("ports", spec.crossbar_ports, 2, kMaxRacks);
      break;
    case TopologySpec::Kind::Oversubscribed:
      visit(io, spec.oversubscribed);
      break;
    case TopologySpec::Kind::Expander:
      visit(io, spec.expander);
      break;
    case TopologySpec::Kind::Rotor:
      visit(io, spec.rotor);
      break;
  }
  io.field("seed_salt", spec.seed_salt, 0, kMaxInt);
  io.field("fixed_wiring", spec.fixed_wiring);
}

/// Shape keys shared by batch workloads and stream traffic.
template <class IO>
void visit_shape(IO& io, WorkloadConfig& shape) {
  io.field("skew", shape.skew);
  io.field("zipf_exponent", shape.zipf_exponent, 0.0, 8.0);
  io.field("hotspot_fraction", shape.hotspot_fraction, 0.0, 1.0);
  io.field("weights", shape.weights);
  io.field("weight_max", shape.weight_max, 1, 1'000'000'000);
  io.field("pareto_shape", shape.pareto_shape, 1.01, 16.0);
  io.field("elephant_fraction", shape.elephant_fraction, 0.0, 1.0);
}

template <class IO>
void visit(IO& io, WorkloadConfig& config) {
  io.field("packets", config.num_packets, 1, 10'000'000);
  io.field("rate", config.arrival_rate, 1e-6, 1e6);
  visit_shape(io, config);
  io.field("bursty", config.bursty);
  io.field("burst_off_prob", config.burst_off_prob, 0.0, 0.999);
}

template <class IO>
void visit(IO& io, TrafficConfig& config) {
  io.field("process", config.process);
  io.field("rho", config.rho, 1e-6, 8.0);
  io.field("capacity_model", config.capacity_model);
  visit_shape(io, config.shape);
  io.field("on_stay", config.on_stay, 0.0, 0.999);
  io.field("off_stay", config.off_stay, 0.0, 0.999);
  io.field("max_zero_demand_fraction", config.max_zero_demand_fraction, 0.0, 1.0);
}

template <class IO>
void visit(IO& io, StageSpec& stage) {
  io.field("duration", stage.duration, 0, 1'000'000'000'000);
  io.field("rho", stage.rho, -1.0, 8.0);
  inherit_or(io, "rho", stage.rho, "must be positive");
  io.field("on_stay", stage.on_stay, -1.0, 0.999);
  inherit_or(io, "on_stay", stage.on_stay, "must be in (0, 1)");
  io.field("off_stay", stage.off_stay, -1.0, 0.999);
  inherit_or(io, "off_stay", stage.off_stay, "must be in (0, 1)");
  StageMutation& mutation = stage.mutation;
  io.field("kill_edges", mutation.kill_edges, kMaxEdgeIndex);
  io.field("restore_edges", mutation.restore_edges, kMaxEdgeIndex);
  io.field("kill_racks", mutation.kill_racks, kMaxRacks);
  io.field("restore_racks", mutation.restore_racks, kMaxRacks);
  io.field("speedup", mutation.speedup_rounds, 0, 16);
  io.field("capacity", mutation.endpoint_capacity, 0, 64);
  io.field("dead", mutation.dead_policy);
}

template <class IO>
void visit(IO& io, EngineOptions& options) {
  io.field("speedup", options.speedup_rounds, 1, 16);
  io.field("capacity", options.endpoint_capacity, 1, 64);
  io.field("reconfig_delay", options.reconfig_delay, 0, kMaxDelay);
  const bool matching_model = options.endpoint_capacity == 1;
  io.check("reconfig_delay", options.reconfig_delay == 0 || matching_model, [] {
    return "requires capacity == 1 (the engine's reconfiguration-delay extension is "
           "defined on the matching model)";
  });
  io.field("audit", options.audit);
  // Observability: cells run with the engine probe on and their rows grow
  // phase_<name>_ns metrics. Aggregates only -- no raw-span ring; the
  // rdcn_cli profile subcommand is the trace-export front end.
  io.field("profile", options.probe.enabled);
}

std::string default_engine_label(const EngineOptions& options) {
  std::string label = "s" + std::to_string(options.speedup_rounds) + "c" +
                      std::to_string(options.endpoint_capacity) + "r" +
                      std::to_string(options.reconfig_delay);
  if (options.audit) label += "-audit";
  if (options.probe.enabled) label += "-profile";
  return label;
}

template <class IO>
void visit(IO& io, SuiteTopology& entry) {
  visit(io, entry.spec);
  io.label(kLabelKey, entry.label, to_string(entry.spec.kind));
}

template <class IO>
void visit(IO& io, SuiteWorkload& entry) {
  visit(io, entry.config);
  io.label(kLabelKey, entry.label, to_string(entry.config.skew));
}

template <class IO>
void visit(IO& io, SuiteTraffic& entry) {
  visit(io, entry.config);
  io.label(kLabelKey, entry.label, to_string(entry.config.process));
}

template <class IO>
void visit(IO& io, SuiteEngine& entry) {
  visit(io, entry.options);
  io.label(kLabelKey, entry.label, default_engine_label(entry.options));
}

template <class IO>
void visit(IO& io, SuiteSpec& suite) {
  io.required("suite", suite.name);
  io.check("suite", !suite.name.empty(), [] { return "suite name must be non-empty"; });
  check_label(io, "suite", suite.name);  // the name prefixes every cell name
  io.field("mode", suite.mode);
  const bool batch = suite.mode == SuiteSpec::Mode::Batch;
  io.block("seeds", nullptr, [&suite](auto& seeds) {
    seeds.field("base", suite.base_seed, 0, kMaxInt);
    seeds.field("repetitions", suite.repetitions, 1, 100'000);
  });
  io.policies("policies", suite.policies);
  io.axis("engines", suite.engines, /*required=*/false, nullptr);
  io.axis("topologies", suite.topologies, /*required=*/true, nullptr);
  io.axis("workloads", suite.workloads, batch,
          batch ? nullptr
                : "only valid when mode is \"batch\" (stream suites describe arrivals "
                  "under \"traffic\")");
  io.axis("traffic", suite.traffic, !batch,
          batch ? "only valid when mode is \"stream\" (batch suites describe finite "
                  "workloads under \"workloads\")"
                : nullptr);
  io.block("stream", batch ? "only valid when mode is \"stream\"" : nullptr,
           [&suite](auto& stream) {
             stream.field("warmup", suite.warmup_packets, 0, 100'000'000);
             stream.field("measure", suite.measure_packets, 1, 1'000'000'000);
             stream.field("window", suite.telemetry_window, 1, 1'000'000);
             stream.field("max_steps", suite.max_steps, 0, kMaxInt);
             stream.field("step_cap_factor", suite.step_cap_factor, 1.0, 1000.0);
           });
  io.stages("stages", suite.stages,
            batch ? "only valid when mode is \"stream\" (a stage schedule drives the "
                    "open-loop StreamRunner)"
                  : nullptr);
}

/// A stage schedule: the suite's "stages" key and the standalone schedule
/// document alike.
std::vector<StageSpec> read_stages(const json::Value& value, const std::string& path) {
  const json::Array& entries = array_at(value, path);
  if (entries.empty()) throw SuiteError(path, "needs at least one stage");
  std::vector<StageSpec> stages(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Reader reader(entries[i], element_path(path, i));
    visit(reader, stages[i]);
    reader.finish();
    reader.check("duration", stages[i].duration != 0 || i + 1 == entries.size(),
                 [] { return "0 (run to the end) is legal for the last stage only"; });
  }
  return stages;
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
  Reader reader(document, "");
  SuiteSpec suite;
  visit(reader, suite);
  reader.finish();
  if (suite.engines.empty()) {  // one default engine variant
    suite.engines.push_back({default_engine_label(EngineOptions{}), EngineOptions{}});
  }
  return suite;
}

SuiteSpec load_suite_file(const std::string& path) {
  return load_file(path, "suite", parse_suite);
}

std::vector<StageSpec> parse_stages_json(const std::string& json_text) {
  return read_stages(parse_document(json_text), "stages");
}

std::vector<StageSpec> load_stages_file(const std::string& path) {
  return load_file(path, "stages", parse_stages_json);
}

std::string suite_to_json(const SuiteSpec& spec) {
  SuiteSpec normalized = spec;  // visit() lists take mutable members
  Writer writer;
  visit(writer, normalized);
  return json::dump(writer.take(), 2) + "\n";
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
  params.emplace_back("mode", to_string(spec.mode));
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

  const auto parse_line = [](const std::string& entry, std::size_t index) {
    try {
      return json::parse(entry);
    } catch (const json::ParseError& error) {
      throw SuiteError("", "journal line " + std::to_string(index + 1) +
                               " is not valid JSON: " + error.what());
    }
  };
  // Records are appended whole, newline last: a final line without its
  // newline that does not parse is an append torn by a crash. Its cell
  // never completed, so it is dropped and re-runs on resume; a malformed
  // line anywhere else is corruption.
  if (!lines.empty() && text.back() != '\n') {
    try {
      json::parse(lines.back());
    } catch (const json::ParseError&) {
      lines.pop_back();
    }
  }
  if (lines.empty()) throw SuiteError("", "empty journal");

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

  // The journal starts as the header plus any resumed rows, written
  // atomically up front so a run killed before its first cell completes
  // still leaves a resumable journal. Each completed cell then appends one
  // record and fsyncs it: SIGKILL at any byte tears at most the last line,
  // which parse_journal drops. Rows are stored verbatim, which is what
  // makes a resumed run's merged output bit-identical to an uninterrupted
  // one.
  const auto journal_record = [&](std::size_t i) {
    json::Object entry;
    entry.emplace_back("cell", static_cast<std::int64_t>(i));
    entry.emplace_back("name", names[i]);
    entry.emplace_back("row", rows[i]);
    return json::dump(json::Value(std::move(entry))) + "\n";
  };
  if (!options.journal.empty()) {
    json::Object header;
    header.emplace_back("rdcn_suite_journal", std::int64_t{1});
    header.emplace_back("suite", spec_.name);
    header.emplace_back("cells", static_cast<std::int64_t>(total));
    header.emplace_back("spec", spec_json);
    std::string text = json::dump(json::Value(std::move(header))) + "\n";
    for (std::size_t i = 0; i < total; ++i) {
      if (!rows[i].empty()) text += journal_record(i);
    }
    atomic_write_file(options.journal, text);
  }
  std::mutex journal_mutex;
  const auto record = [&](std::size_t global, std::string row) {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    rows[global] = std::move(row);
    if (!options.journal.empty()) append_synced(options.journal, journal_record(global));
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
