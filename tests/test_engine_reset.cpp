// Engine::reset: an engine re-armed onto an instance must schedule it bit
// for bit like a freshly built engine. run/ resets one engine for every
// cell of a batch task, so any state a reset forgets -- a stale array on a
// smaller or larger topology, a serial, a dead edge, a half-finished step
// -- would silently change a grid's results. Each case compares the reset
// engine's run with a fresh one through check::run_differences: every
// PacketOutcome field, the cost bits, steps, trace and probe counters.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "sim/engine.hpp"
#include "util/fault.hpp"

namespace rdcn {
namespace {

/// rdcnbench batch_grid's shape at `racks` racks: a sparse two-tier pod
/// with Zipf-skewed traffic, so queues build on the hot pairs.
Instance pod_instance(NodeIndex racks, std::size_t packets, std::uint64_t seed) {
  TopologySpec topology;
  topology.two_tier.racks = racks;
  topology.two_tier.density = 0.4;
  topology.two_tier.max_edge_delay = 2;
  WorkloadConfig workload;
  workload.num_packets = packets;
  workload.arrival_rate = 16.0;
  workload.skew = PairSkew::Zipf;
  workload.seed = seed;
  return generate_workload(make_topology(topology, seed), workload);
}

Instance crossbar_instance(NodeIndex ports, std::size_t packets, std::uint64_t seed) {
  TopologySpec topology;
  topology.kind = TopologySpec::Kind::Crossbar;
  topology.crossbar_ports = ports;
  WorkloadConfig workload;
  workload.num_packets = packets;
  workload.arrival_rate = 4.0;
  workload.skew = PairSkew::Hotspot;
  workload.seed = seed;
  return generate_workload(make_topology(topology, seed), workload);
}

/// Policy objects live as long as the run they serve.
struct Policies {
  Policies(const PolicyFactory& policy, const Instance& instance)
      : dispatcher(policy.dispatcher()), scheduler(policy.scheduler(instance.topology())) {}
  std::unique_ptr<DispatchPolicy> dispatcher;
  std::unique_ptr<SchedulePolicy> scheduler;
};

RunResult fresh_run(const Instance& instance, const PolicyFactory& policy,
                    const EngineOptions& options,
                    const std::vector<TimedMutation>& schedule = {}) {
  Policies policies(policy, instance);
  Engine engine(instance, *policies.dispatcher, *policies.scheduler, options);
  return engine.run(schedule);
}

RunResult reset_run(Engine& engine, const Instance& instance, const PolicyFactory& policy,
                    const EngineOptions& options,
                    const std::vector<TimedMutation>& schedule = {}) {
  Policies policies(policy, instance);
  engine.reset(instance, *policies.dispatcher, *policies.scheduler, options);
  return engine.run(schedule);
}

std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += "\n  " + line;
  return text;
}

void expect_identical(const RunResult& fresh, const RunResult& reset, const std::string& what) {
  const std::vector<std::string> differences = check::run_differences(fresh, reset);
  EXPECT_TRUE(differences.empty()) << what << ":" << joined(differences);
}

TEST(EngineReset, EveryPolicyMatchesAFreshEngineAsTopologiesShrinkAndGrow) {
  // 64 racks down to 8, down to a crossbar, back up to 64 (rewired): every
  // topology-sized array is reused both at a smaller size, where stale
  // tails lie beyond it, and at the same size with other contents.
  const std::vector<Instance> instances = {
      pod_instance(64, 600, 1), pod_instance(8, 300, 2), crossbar_instance(6, 200, 3),
      pod_instance(64, 600, 4)};
  for (const std::string& name : policy_names()) {
    const PolicyFactory policy = named_policy(name);
    std::optional<Engine> engine;
    Policies first(policy, instances.front());
    engine.emplace(instances.front(), *first.dispatcher, *first.scheduler);
    engine->run();
    for (std::size_t i = 1; i < instances.size(); ++i) {
      expect_identical(fresh_run(instances[i], policy, {}),
                       reset_run(*engine, instances[i], policy, {}),
                       name + " on instance " + std::to_string(i));
    }
  }
}

TEST(EngineReset, OptionsWithPerRunStateMatchAFreshEngine) {
  // One engine goes through every option that keeps state of its own --
  // the auditor, the probe (its event ring too), the trace's full priority
  // list, queued redispatch, extra rounds, b-matching, retuning endpoints.
  // Under each, it runs the pod twice, then the crossbar twice: a run
  // follows a differently configured run on the other topology, a run on
  // a larger topology, and a run of the same instance under the same
  // options, which leaves stale values exactly where this run reads.
  std::vector<EngineOptions> variants(8);
  variants[0].audit = true;
  variants[1].probe.enabled = true;
  variants[2].probe.enabled = true;
  variants[2].probe.event_capacity = 64;
  variants[3].record_trace = true;
  variants[3].audit = true;
  variants[4].redispatch_queued = true;
  variants[5].speedup_rounds = 2;
  variants[6].endpoint_capacity = 2;
  variants[7].reconfig_delay = 2;
  const std::vector<Instance> instances = {pod_instance(8, 300, 5),
                                           crossbar_instance(5, 150, 6)};
  for (const char* name : {"alg", "maxweight", "random"}) {
    const PolicyFactory policy = named_policy(name);
    Policies first(policy, instances.back());
    Engine engine(instances.back(), *first.dispatcher, *first.scheduler);
    engine.run();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (const Instance* instance :
           {&instances[0], &instances[0], &instances[1], &instances[1]}) {
        expect_identical(fresh_run(*instance, policy, variants[v]),
                         reset_run(engine, *instance, policy, variants[v]),
                         std::string(name) + " under variant " + std::to_string(v));
      }
    }
  }
}

TEST(EngineReset, StagedKillAndRequeueMatchAFreshEngine) {
  // A staged run leaves edges dead and the drop/requeue counters up; the
  // next reset must bring every edge back and the counters to zero, and a
  // staged run after a plain or a staged one must kill exactly what a
  // fresh one does.
  const Instance pod = pod_instance(8, 400, 7);
  const Instance other = pod_instance(8, 300, 8);
  StageMutation requeue;
  for (EdgeIndex e = 0; e < pod.topology().num_edges(); e += 2) requeue.kill_edges.push_back(e);
  requeue.dead_policy = DeadPolicy::Requeue;
  StageMutation drop;
  drop.kill_racks = {3};
  StageMutation restore;
  restore.restore_racks = {3};
  const std::vector<TimedMutation> schedule = {{4, requeue}, {8, drop}, {14, restore}};
  for (const char* name : {"alg", "jsq", "fifo"}) {
    const PolicyFactory policy = named_policy(name);
    EngineOptions audited;
    audited.audit = true;
    Policies fresh_policies(policy, pod);
    Engine fresh(pod, *fresh_policies.dispatcher, *fresh_policies.scheduler, audited);
    const RunResult staged = fresh.run(schedule);
    ASSERT_GT(fresh.packets_requeued(), 0u) << name << ": the kill requeued nothing";

    Policies first(policy, other);
    Engine engine(other, *first.dispatcher, *first.scheduler, audited);
    engine.run();
    expect_identical(staged, reset_run(engine, pod, policy, audited, schedule),
                     std::string(name) + " staged after plain");
    EXPECT_EQ(engine.packets_dropped(), fresh.packets_dropped()) << name;
    EXPECT_EQ(engine.packets_requeued(), fresh.packets_requeued()) << name;
    EXPECT_GT(engine.dead_edge_count(), 0u) << name << ": the even edges stayed dead";
    expect_identical(fresh_run(other, policy, audited),
                     reset_run(engine, other, policy, audited),
                     std::string(name) + " plain after staged");
    EXPECT_EQ(engine.dead_edge_count(), 0u) << name;
    EXPECT_EQ(engine.packets_dropped(), 0u) << name;
    EXPECT_EQ(engine.packets_requeued(), 0u) << name;
    expect_identical(staged, reset_run(engine, pod, policy, audited, schedule),
                     std::string(name) + " staged after plain after staged");
    expect_identical(staged, reset_run(engine, pod, policy, audited, schedule),
                     std::string(name) + " staged after staged");
  }
}

/// Cancels `token` once the wrapped scheduler has served `rounds` rounds,
/// so the run throws CancelledError at a step boundary deep in the run.
class CancelAfterRounds final : public SchedulePolicy {
 public:
  CancelAfterRounds(std::unique_ptr<SchedulePolicy> inner, CancelToken& token, int rounds)
      : inner_(std::move(inner)), token_(&token), rounds_(rounds) {}
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override {
    inner_->select(engine, now, candidates, out);
    if (--rounds_ == 0) token_->cancel();
  }

 private:
  std::unique_ptr<SchedulePolicy> inner_;
  CancelToken* token_;
  int rounds_;
};

/// Names one packet twice on its first call with two candidates, which
/// the engine rejects inside the round: the step stays open.
class DoubleBookingScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>& candidates,
              Selection& out) override {
    if (candidates.size() < 2) return;
    out.push(candidates.front().packet);
    out.push(candidates.front().packet);
  }
};

TEST(EngineReset, ResetAfterARunThatThrewMatchesAFreshEngine) {
  // A throw leaves the engine mid-run: packets pending, heads dirty, the
  // trace's priority list and the impact index's weight structures live,
  // and (for the scheduler's throw) the step still open. A reset must
  // clear all of it.
  const Instance pod = pod_instance(8, 400, 9);
  const Instance crossbar = crossbar_instance(6, 200, 10);
  const PolicyFactory alg = named_policy("alg");
  EngineOptions audited;
  audited.audit = true;

  {
    EngineOptions traced = audited;
    traced.record_trace = true;
    EngineOptions capped = traced;
    capped.max_steps = 10;
    Policies policies(alg, pod);
    Engine engine(pod, *policies.dispatcher, *policies.scheduler, capped);
    EXPECT_THROW(engine.run(), std::runtime_error);
    ASSERT_TRUE(engine.busy());
    ASSERT_GT(engine.impact_index().updates_since_query(), 0u);
    Policies next(alg, crossbar);
    engine.reset(crossbar, *next.dispatcher, *next.scheduler, traced);
    // No run can show a stale upkeep count -- the query that rebuilds the
    // weight structures also clears it -- so the reset is checked directly.
    EXPECT_EQ(engine.impact_index().updates_since_query(), 0u);
    expect_identical(fresh_run(crossbar, alg, traced), engine.run(), "after max_steps");
  }
  {
    CancelToken token;
    EngineOptions cancellable = audited;
    cancellable.cancel = &token;
    auto dispatcher = alg.dispatcher();
    CancelAfterRounds scheduler(alg.scheduler(pod.topology()), token, 12);
    Engine engine(pod, *dispatcher, scheduler, cancellable);
    EXPECT_THROW(engine.run(), CancelledError);
    ASSERT_TRUE(engine.busy());
    expect_identical(fresh_run(crossbar, alg, audited),
                     reset_run(engine, crossbar, alg, audited), "after cancellation");
    // The other way round: the cancelled topology, after a clean run.
    expect_identical(fresh_run(pod, alg, {}), reset_run(engine, pod, alg, {}),
                     "after cancellation, then a clean run");
  }
  {
    auto dispatcher = alg.dispatcher();
    DoubleBookingScheduler scheduler;
    Engine engine(pod, *dispatcher, scheduler);
    EXPECT_THROW(engine.run(), std::logic_error);
    // A mutation due at time 1 applies before the first step begins, which
    // only an engine whose last step is closed accepts.
    StageMutation kill;
    kill.kill_racks = {2};
    const std::vector<TimedMutation> schedule = {{1, kill}};
    expect_identical(fresh_run(pod, alg, audited, schedule),
                     reset_run(engine, pod, alg, audited, schedule),
                     "after a scheduler's throw mid-step");
  }
}

TEST(EngineReset, ResetTurnsAStreamingEngineIntoABatchOne) {
  const Instance pod = pod_instance(8, 300, 11);
  const PolicyFactory alg = named_policy("alg");
  Policies policies(alg, pod);
  std::size_t retired = 0;
  Engine engine(pod.topology(), *policies.dispatcher, *policies.scheduler, {},
                [&retired](RetiredPacket&&) { ++retired; });
  const std::vector<Packet>& packets = pod.packets();
  std::size_t next = 0;
  for (int step = 0; step < 8; ++step) {
    engine.begin_step(&packets[next].arrival);
    while (next < packets.size() && packets[next].arrival == engine.now()) {
      engine.inject(packets[next++]);
    }
    engine.finish_step();
  }
  ASSERT_TRUE(engine.busy());
  const Instance crossbar = crossbar_instance(6, 200, 12);
  expect_identical(fresh_run(crossbar, alg, {}), reset_run(engine, crossbar, alg, {}),
                   "streaming, then batch");
  EXPECT_EQ(engine.packets_dispatched(), crossbar.num_packets());
}

}  // namespace
}  // namespace rdcn
