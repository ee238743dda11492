// Self-tests of the benchmark harness (not of the library):
//
//   rdcnbench_selftest BENCHMARK.json
//
//  * workload and metric names are valid and match BENCHMARK.json;
//  * a different seed changes the traffic, and so the fingerprint;
//  * the timing decorators and span hooks leave the fingerprint unchanged;
//  * a short audited run (EngineOptions::audit, the independent invariant
//    auditor) of each workload shape agrees with the unaudited run;
//  * the harness's stream loop reproduces StreamRunner on the same spec.
//
// Prints one line per check and exits 1 if any failed.

#include <bit>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "run/stream.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace rdcnbench;
namespace json = rdcn::json;

int failures = 0;

/// `detail` is printed only when the check fails.
void check(bool ok, const std::string& what, const std::string& detail = "") {
  std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
              ok || detail.empty() ? "" : ": ", ok ? "" : detail.c_str());
  if (!ok) ++failures;
}

/// The workload at a length short enough to audit.
Workload shortened(const Workload& full) {
  Workload workload = full;
  if (workload.stream) {
    workload.stream->warmup = 200;
    workload.stream->measure = 1500;
  } else {
    workload.batch->repetitions = 2;
    workload.batch->workload.num_packets = 300;
  }
  return workload;
}

std::vector<Fingerprint> run_short(const Workload& workload, std::uint64_t seed, bool audit,
                                   bool traced) {
  if (workload.batch) {
    return run_batch_round(*workload.batch, workload.policies, seed, audit, traced).fingerprints;
  }
  std::vector<Fingerprint> fingerprints;
  for (const std::string& name : workload.policies) {
    const rdcn::PolicyFactory policy = rdcn::named_policy(name);
    fingerprints.push_back(
        run_stream_rep(*workload.stream, traced ? timed_policy(policy) : policy, seed, audit,
                       traced ? &Tracer::local() : nullptr, nullptr)
            .fingerprint);
  }
  return fingerprints;
}

std::string describe_all(const std::vector<Fingerprint>& fingerprints) {
  std::string text;
  for (const Fingerprint& fingerprint : fingerprints) text += describe(fingerprint) + " ";
  return text;
}

void check_names(const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value root = json::parse(text.str());

  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  const auto valid_name = [&](const std::string& name) {
    return std::regex_match(name, name_re) && seen.insert(name).second;
  };

  std::vector<std::string> listed;
  for (const json::Value& entry : root.find("workloads")->as_array()) {
    listed.push_back(entry.find("name")->as_string());
  }
  std::vector<std::string> harness;
  for (const Workload& workload : workloads()) {
    harness.push_back(workload.name);
    check(valid_name(workload.name), "workload name valid and unique: " + workload.name);
  }
  check(listed == harness, "BENCHMARK.json workloads match the harness");

  const auto compare = [&](const char* key, const std::vector<MetricSpec>& specs) {
    std::vector<std::string> in_file;
    for (const json::Value& entry : root.find(key)->as_array()) {
      in_file.push_back(entry.find("name")->as_string() + " [" +
                        entry.find("unit")->as_string() + "]");
    }
    std::vector<std::string> in_harness;
    for (const MetricSpec& spec : specs) {
      in_harness.push_back(spec.name + " [" + spec.unit + "]");
      check(valid_name(spec.name) && std::regex_match(spec.unit, unit_re),
            std::string(key) + " metric name and unit valid: " + spec.name);
    }
    check(in_file == in_harness, std::string("BENCHMARK.json ") + key + " match the harness");
  };
  compare("end_to_end", end_to_end_metrics());
  compare("per_layer", per_layer_metrics());
  bool has_setup = false;
  for (const MetricSpec& spec : end_to_end_metrics()) {
    has_setup = has_setup || (spec.name == "setup_s" && spec.unit == "s");
  }
  check(has_setup, "end_to_end has setup_s in seconds");
}

void check_stream_loop_matches_stream_runner(const Workload& workload) {
  const StreamShape& shape = *workload.stream;
  rdcn::StreamSpec spec;
  spec.topology = shape.topology;
  spec.traffic = shape.traffic;
  spec.warmup_packets = shape.warmup;
  spec.measure_packets = shape.measure;
  spec.step_cap_factor = shape.step_cap_factor;
  const rdcn::StreamRunner runner(spec);
  for (const std::string& name : workload.policies) {
    const rdcn::PolicyFactory policy = rdcn::named_policy(name);
    const rdcn::StreamRepOutcome reference = runner.run_repetition(policy, kDefaultSeed);
    Fingerprint expected;
    expected.served = reference.served;
    expected.steps = reference.steps;
    expected.cost_bits = std::bit_cast<std::uint64_t>(reference.total_cost);
    expected.latency_p50 = reference.latency.empty() ? -1 : reference.latency.p50();
    expected.latency_p99 = reference.latency.empty() ? -1 : reference.latency.p99();
    expected.truncated = reference.truncated;
    const Fingerprint got =
        run_stream_rep(shape, policy, kDefaultSeed, false, nullptr, nullptr).fingerprint;
    check(got == expected, workload.name + "/" + name + ": stream loop reproduces StreamRunner",
          describe(expected) + " vs " + describe(got));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: rdcnbench_selftest BENCHMARK.json\n");
    return 2;
  }
  try {
    check_names(argv[1]);
    for (const Workload& full : workloads()) {
      const Workload workload = shortened(full);
      const std::vector<Fingerprint> plain = run_short(workload, kDefaultSeed, false, false);
      const std::vector<Fingerprint> other = run_short(workload, kHeldOutSeed, false, false);
      check(plain != other, workload.name + ": another seed changes the traffic");
      const std::vector<Fingerprint> traced = run_short(workload, kDefaultSeed, false, true);
      check(!take_mismatches(), workload.name + ": spans nest as the harness expects");
      check(traced == plain, workload.name + ": decorators leave the fingerprint unchanged",
            describe_all(plain) + "vs " + describe_all(traced));
      const std::vector<Fingerprint> audited = run_short(workload, kDefaultSeed, true, false);
      check(audited == plain, workload.name + ": audited run agrees with the unaudited run",
            describe_all(plain) + "vs " + describe_all(audited));
      if (workload.stream) check_stream_loop_matches_stream_runner(workload);
    }
  } catch (const std::exception& error) {
    check(false, "self-test threw", error.what());
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
