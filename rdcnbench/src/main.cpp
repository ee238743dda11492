// rdcn benchmark: runs one workload for a fixed host-time budget and
// prints its metrics, checking every repetition's simulated output.
//
//   rdcnbench --workload NAME --seed N --seconds S --trace 0|1
//             [--fingerprints FILE] [--trace-out FILE] [--record]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same rounds untraced and then traced, checks the two produce
// bit-identical fingerprints, and prints the per-layer metrics. --record
// runs one round and prints its fingerprints instead (to refresh FILE).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit 1 when any repetition threw or mismatched, 2 on bad usage.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace rdcnbench;
namespace json = rdcn::json;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string fingerprints;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--fingerprints") {
      args.fingerprints = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Recorded fingerprints of (workload, seed), by policy; empty if none.
std::map<std::string, Fingerprint> load_reference(const std::string& path,
                                                  const std::string& workload,
                                                  std::uint64_t seed) {
  std::map<std::string, Fingerprint> reference;
  if (path.empty()) return reference;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value root = json::parse(text.str());
  const json::Value* by_seed = root.find(workload);
  if (by_seed == nullptr) return reference;
  const json::Value* by_policy = by_seed->find(std::to_string(seed));
  if (by_policy == nullptr) return reference;
  for (const auto& [policy, value] : by_policy->as_object()) {
    reference.emplace(policy, fingerprint_from_json(value));
  }
  return reference;
}

/// Checks each repetition's fingerprint against the recorded reference and
/// against the first repetition of the same policy in this process.
class Checker {
 public:
  Checker(std::vector<std::string> policies, std::map<std::string, Fingerprint> reference)
      : policies_(std::move(policies)), reference_(std::move(reference)),
        first_(policies_.size()) {}

  void check(std::size_t policy, const Fingerprint& fingerprint) {
    ++attempted_;
    const std::string& name = policies_[policy];
    const auto recorded = reference_.find(name);
    if (recorded != reference_.end() && !(recorded->second == fingerprint)) {
      fail(name + " differs from the recorded fingerprint " + describe(recorded->second) +
           ": " + describe(fingerprint));
      return;
    }
    if (!first_[policy]) {
      first_[policy] = fingerprint;
    } else if (!(*first_[policy] == fingerprint)) {
      fail(name + " differs from its first repetition " + describe(*first_[policy]) + ": " +
           describe(fingerprint));
    }
  }

  /// A round that threw fails all `repetitions` it was running.
  void threw(std::size_t repetitions, const std::string& what) {
    attempted_ += repetitions;
    failed_ += repetitions - 1;
    fail(what);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool checked_reference() const { return !reference_.empty(); }
  const std::optional<Fingerprint>& first(std::size_t policy) const { return first_[policy]; }

 private:
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "rdcnbench: repetition failed: " << what << "\n";
  }

  std::vector<std::string> policies_;
  std::map<std::string, Fingerprint> reference_;
  std::vector<std::optional<Fingerprint>> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Samples gathered over a pass (untraced or traced) of rounds.
struct Pass {
  std::vector<double> round_wall_s;
  double served = 0.0;              ///< packets, summed over rounds
  double sim_s = 0.0;               ///< simulation wall time, set-up excluded
  std::vector<double> setup_s;      ///< per repetition (stream), per round (batch)
  /// Step-time percentiles of each round: over its engine steps (stream,
  /// thousands) or its repetitions (batch, 1,000), so each p99 has at
  /// least ten samples past it.
  std::vector<double> step_p50_us;
  std::vector<double> step_p99_us;
  std::uint64_t steps = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t in_flight_sum = 0;
  std::vector<std::uint32_t> step_ns;  ///< reused per round
};

/// Nearest-rank percentile, q in (0, 100].
template <typename T>
double percentile(std::vector<T> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  const std::size_t index = std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]);
}

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins this thread -- and the pool threads a batch round spawns, which
/// inherit its mask -- to `threads` of the allowed CPUs, rotating with the
/// round number. On a shared host each CPU's speed drifts with what other
/// tenants run beside it, for tens of seconds at a time; a thread left
/// alone tends to stay on one CPU, so a whole run measured one CPU's luck.
/// Rotating makes every run sample every CPU.
void pin_round(std::size_t round, std::size_t threads) {
  static const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < std::min(threads, cpus.size()); ++i) {
    CPU_SET(cpus[(round * threads + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

/// A stream round: every policy of the workload once, in order.
void stream_round(const Workload& workload, const std::vector<rdcn::PolicyFactory>& policies,
                  std::uint64_t seed, bool traced, Checker& checker, Pass& pass) {
  pass.step_ns.clear();
  for (std::size_t i = 0; i < policies.size(); ++i) {
    try {
      const StreamRep rep =
          run_stream_rep(*workload.stream, policies[i], seed, false,
                         traced ? &Tracer::local() : nullptr, traced ? nullptr : &pass.step_ns);
      if (take_mismatches()) throw std::runtime_error("span nesting broke");
      checker.check(i, rep.fingerprint);
      pass.served += static_cast<double>(rep.fingerprint.served);
      pass.sim_s += rep.sim_s;
      pass.setup_s.push_back(rep.setup_s);
      pass.steps += static_cast<std::uint64_t>(rep.fingerprint.steps);
      pass.pending_sum += rep.pending_sum;
      pass.pending_peak = std::max(pass.pending_peak, rep.pending_peak);
      pass.in_flight_sum += rep.in_flight_sum;
    } catch (const std::exception& error) {
      take_mismatches();
      checker.threw(1, workload.policies[i] + " threw: " + error.what());
    }
  }
  if (!pass.step_ns.empty()) {
    pass.step_p50_us.push_back(percentile(pass.step_ns, 50.0) / 1e3);
    pass.step_p99_us.push_back(percentile(pass.step_ns, 99.0) / 1e3);
  }
}

void batch_round(const Workload& workload, std::uint64_t seed, bool traced, Checker& checker,
                 Pass& pass) {
  try {
    BatchRound batch = run_batch_round(*workload.batch, workload.policies, seed, false, traced);
    if (take_mismatches()) throw std::runtime_error("span nesting broke");
    for (std::size_t i = 0; i < batch.fingerprints.size(); ++i) {
      checker.check(i, batch.fingerprints[i]);
    }
    pass.served += static_cast<double>(batch.served);
    pass.sim_s += batch.sim_s;
    pass.setup_s.push_back(batch.setup_s);
    pass.step_p50_us.push_back(percentile(batch.step_us, 50.0));
    pass.step_p99_us.push_back(percentile(batch.step_us, 99.0));
  } catch (const std::exception& error) {
    take_mismatches();
    checker.threw(workload.policies.size(), std::string("batch round threw: ") + error.what());
  }
}

void run_round(const Workload& workload, const std::vector<rdcn::PolicyFactory>& policies,
               std::uint64_t seed, bool traced, Checker& checker, Pass& pass) {
  pin_round(pass.round_wall_s.size(), workload.batch ? workload.batch->threads : 1);
  const std::int64_t begin = now_ns();
  if (workload.stream) {
    stream_round(workload, policies, seed, traced, checker, pass);
  } else {
    batch_round(workload, seed, traced, checker, pass);
  }
  pass.round_wall_s.push_back(static_cast<double>(now_ns() - begin) * 1e-9);
}

/// Peak resident memory of this process image. VmHWM rather than
/// getrusage's ru_maxrss: the latter keeps the high-water mark of the
/// launcher that exec'ed this binary.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double sample : samples) sum += sample;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// End-to-end metrics over a run's rounds, all of which do identical work.
/// Throughput and step percentiles are means over the whole run, not
/// medians over rounds: the host's speed switches between two levels for
/// ten seconds or more at a time, so a median over rounds lands on one
/// level or the other by which held a little longer, while a mean moves
/// with the share of the run spent at each.
std::map<std::string, double> end_to_end(const Pass& pass) {
  std::map<std::string, double> values;
  values["pkts_per_s"] = pass.sim_s > 0.0 ? pass.served / pass.sim_s : 0.0;
  values["step_us_p50"] = mean(pass.step_p50_us);
  values["step_us_p99"] = mean(pass.step_p99_us);
  values["setup_s"] = percentile(pass.setup_s, 50.0);
  values["peak_rss_mb"] = peak_rss_mib();
  return values;
}

std::map<std::string, double> per_layer(const Workload& workload, const Pass& untraced,
                                        const Pass& traced) {
  const std::vector<SpanTotals> totals = merged_totals();
  const std::vector<std::uint64_t> counters = merged_counters();
  const auto span = [&](const std::string& name) {
    const NameId id = intern(name);
    return id < totals.size() ? totals[id] : SpanTotals{};
  };
  const auto counter = [&](const std::string& name) -> double {
    const NameId id = intern(name);
    return id < counters.size() ? static_cast<double>(counters[id]) : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto mean_ns = [&](const std::string& name) {
    const SpanTotals t = span(name);
    return ratio(static_cast<double>(t.total_ns), static_cast<double>(t.count));
  };
  const auto self_ns = [&](const std::string& name) {
    const SpanTotals t = span(name);
    return ratio(static_cast<double>(t.self_ns()), static_cast<double>(t.count));
  };

  std::map<std::string, double> values;
  values["net.topology_build_us"] = mean_ns("net.topology_build") / 1e3;
  values["traffic.calibrate_us"] = mean_ns("traffic.calibrate") / 1e3;
  values["traffic.next_ns"] = mean_ns("traffic.next");
  values["workload.instance_ms"] = mean_ns("workload.instance") / 1e6;
  values["sim.begin_step_ns"] = mean_ns("sim.begin_step");
  values["sim.inject_self_ns"] = self_ns("sim.inject");
  values["sim.round_self_ns"] = self_ns("sim.finish_step");
  const auto steps = static_cast<double>(traced.steps);
  values["sim.pending_mean"] = ratio(static_cast<double>(traced.pending_sum), steps);
  values["sim.pending_peak"] = static_cast<double>(traced.pending_peak);
  values["sim.in_flight_mean"] = ratio(static_cast<double>(traced.in_flight_sum), steps);
  for (const char* policy : {"alg", "maxweight", "islip", "jsq"}) {
    const std::string p(policy);
    values["dispatch." + p + ".ns_per_call"] = mean_ns("dispatch." + p);
    values["select." + p + ".ns_per_round"] = mean_ns("select." + p);
    values["select." + p + ".candidates_per_round"] =
        ratio(counter("select." + p + ".candidates"),
              static_cast<double>(span("select." + p).count));
    values["select." + p + ".fill"] =
        ratio(counter("select." + p + ".selected"), counter("select." + p + ".capacity"));
  }
  values["sink.ns_per_pkt"] =
      ratio(static_cast<double>(span("sink").total_ns), counter("sink.packets"));

  const double threads =
      workload.batch ? static_cast<double>(workload.batch->threads) : 1.0;
  const auto rounds = static_cast<double>(traced.round_wall_s.size());
  double wall_s = 0.0;
  for (const double round_s : traced.round_wall_s) wall_s += round_s;
  const double busy_s = static_cast<double>(span("run.rep").total_ns) * 1e-9;
  values["run.grid_wall_s"] = ratio(wall_s, rounds);
  values["run.rep_busy_s"] = ratio(busy_s, rounds);
  values["run.parallel_eff"] = ratio(busy_s, threads * wall_s);

  // Self time of every layer span; the grouping spans (a repetition, its
  // set-up, one engine step) are harness glue, so their self time is part
  // of what the layers leave unexplained.
  double layer_self_ns = 0.0;
  for (NameId id = 0; id < totals.size(); ++id) {
    const std::string& name = name_of(id);
    if (name == "run.rep" || name == "run.setup" || name == "sim.step") continue;
    layer_self_ns += static_cast<double>(totals[id].self_ns());
  }
  values["trace.residual_share"] = 1.0 - ratio(layer_self_ns * 1e-9, threads * wall_s);
  // Median round against median round: the first rounds of a process run
  // cold, and they all fall in the untraced pass.
  values["trace.overhead"] =
      ratio(percentile(traced.round_wall_s, 50.0), percentile(untraced.round_wall_s, 50.0)) -
      1.0;
  return values;
}

std::string result_line(bool correct, const Checker& checker,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  json::Object metrics;
  for (const MetricSpec& spec : specs) {
    metrics.emplace_back(spec.name,
                         json::Object{{"value", values.at(spec.name)}, {"unit", spec.unit}});
  }
  return json::dump(json::Object{
      {"correct", correct},
      {"attempted", static_cast<std::int64_t>(checker.attempted())},
      {"failed", static_cast<std::int64_t>(checker.failed())},
      {"metrics", std::move(metrics)},
  });
}

int run(const Args& args) {
  const Workload& workload = find_workload(args.workload);
  std::vector<rdcn::PolicyFactory> policies;
  std::vector<rdcn::PolicyFactory> timed;
  for (const std::string& name : workload.policies) {
    policies.push_back(rdcn::named_policy(name));
    timed.push_back(timed_policy(policies.back()));
  }
  Checker checker(workload.policies,
                  load_reference(args.fingerprints, workload.name, args.seed));

  if (args.record) {
    Pass pass;
    run_round(workload, policies, args.seed, false, checker, pass);
    if (checker.failed() > 0) return 1;
    json::Object by_policy;
    for (std::size_t i = 0; i < policies.size(); ++i) {
      by_policy.emplace_back(workload.policies[i], to_json(*checker.first(i)));
    }
    std::cout << json::dump(json::Object{{workload.name, json::Object{{std::to_string(
                                                                           args.seed),
                                                                       std::move(by_policy)}}}},
                            2)
              << "\n";
    return 0;
  }

  // Untraced pass: the whole budget, or half of it ahead of a traced pass
  // of the same number of rounds.
  Pass untraced;
  const double budget_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::int64_t start = now_ns();
  do {
    run_round(workload, policies, args.seed, false, checker, untraced);
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s);

  std::map<std::string, double> values;
  const std::vector<MetricSpec>* specs = &end_to_end_metrics();
  Pass traced;
  if (args.trace) {
    reset_traces();
    for (std::size_t i = 0; i < untraced.round_wall_s.size(); ++i) {
      // Stream rounds wrap the policies here; batch rounds wrap them
      // inside run_batch_round (the repetition spans need the hook).
      run_round(workload, workload.stream ? timed : policies, args.seed, true, checker, traced);
    }
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out);
    values = per_layer(workload, untraced, traced);
    specs = &per_layer_metrics();
  } else {
    values = end_to_end(untraced);
  }

  const bool correct = checker.failed() == 0;
  std::printf("rdcnbench %s seed %llu: %zu round(s), policies", workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), untraced.round_wall_s.size());
  for (const std::string& policy : workload.policies) std::printf(" %s", policy.c_str());
  std::printf("; fingerprints %s\n",
              checker.checked_reference() ? "checked against the recorded reference"
                                          : "checked across repetitions (no reference)");
  if (args.trace) {
    std::printf("  traced pass: %zu round(s); fingerprints equal the untraced pass: %s\n",
                traced.round_wall_s.size(), correct ? "yes" : "NO");
  } else if (workload.stream) {
    std::printf("  %llu engine steps; step percentiles per round, means over rounds\n",
                static_cast<unsigned long long>(untraced.steps));
  } else {
    std::printf("  step samples: each repetition's Engine::run time / steps; percentiles per "
                "round, means over rounds\n");
  }
  for (const MetricSpec& spec : *specs) {
    std::printf("  %-40s %.6g %s\n", spec.name.c_str(), values.at(spec.name),
                spec.unit.c_str());
  }
  std::printf("  %-40s %.6g ratio (%llu failed / %llu attempted)\n", "error_rate",
              static_cast<double>(checker.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(checker.attempted(), 1)),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));
  std::printf("%s\n", result_line(correct, checker, *specs, values).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "rdcnbench: " << error.what() << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "rdcnbench: " << error.what() << "\n";
    return 1;
  }
}
