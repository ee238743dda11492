// Regression tests for the indexed engine core:
//  * determinism -- the incrementally-maintained candidate list must
//    reproduce the pre-refactor (rebuild-and-sort) engine's schedules
//    bit-for-bit; the golden costs below were captured from the seed
//    engine on the make_varied_instance family;
//  * the SchedulePolicy contract -- select() gets exactly each edge's
//    priority and FIFO heads, priority-sorted, with current remaining
//    counts, on shallow and deep queues alike;
//  * EngineOptions edge interactions (reconfig_delay x endpoint_capacity,
//    redispatch_queued / record_trace rejection matrix).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/alg.hpp"
#include "core/randomized.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

struct Golden {
  std::uint64_t seed;
  double total_cost;
  Time makespan;
};

// Captured from the seed engine (pre-refactor) at commit b07bcdf, %.17g.
constexpr Golden kSeedEngineGoldens[] = {
    {1ULL, 136, 12},
    {2ULL, 146.5, 17},
    {3ULL, 16, 6},
    {4ULL, 263, 20},
    {5ULL, 297.49999999999994, 12},
    {7ULL, 152.5, 8},
    {11ULL, 163.5, 11},
    {101ULL, 2940.5, 32},
    {103ULL, 5376.333333333333, 56},
    {117ULL, 5024, 42},
};

TEST(EngineRegression, ReproducesSeedEngineCosts) {
  for (const Golden& golden : kSeedEngineGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    EngineOptions options;
    options.record_trace = false;
    const RunResult run = run_alg(instance, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << "seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << "seed " << golden.seed;
  }
}

TEST(EngineRegression, GoldensPassThePerStepAudit) {
  // The audit hook is observation-only: with EngineOptions::audit on, the
  // check/ auditor re-derives matching feasibility, conservation and
  // completion accounting at every step (throwing AuditFailure on any
  // violation) while the golden costs must still reproduce bit-for-bit.
  for (const Golden& golden : kSeedEngineGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    EngineOptions options;
    options.record_trace = false;
    options.audit = true;
    const RunResult run = run_alg(instance, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << "seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << "seed " << golden.seed;
  }
}

TEST(EngineRegression, RepeatedRunsAreIdentical) {
  for (const std::uint64_t seed : {2ULL, 103ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    const RunResult a = run_alg(instance);
    const RunResult b = run_alg(instance);
    EXPECT_EQ(a.total_cost, b.total_cost);
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      EXPECT_EQ(a.outcomes[i].chunk_transmit_steps, b.outcomes[i].chunk_transmit_steps);
    }
  }
}

// --------------------------- all-policy schedule goldens (Selection API) --

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the integral schedule data (route kind/edge, completion,
/// per-chunk transmit steps) in packet-id order: equal hashes == bit-for-
/// bit identical schedules, with no floating-point in the fingerprint.
std::uint64_t schedule_hash(const std::vector<PacketOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PacketOutcome& o : outcomes) {
    h = mix64(h, o.route.use_fixed ? 1u : 0u);
    h = mix64(h, static_cast<std::uint64_t>(o.route.use_fixed ? -1 : o.route.edge));
    h = mix64(h, static_cast<std::uint64_t>(o.completion));
    h = mix64(h, o.chunk_transmit_steps.size());
    for (Time t : o.chunk_transmit_steps) h = mix64(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

struct PolicyGolden {
  const char* policy;
  std::uint64_t seed;
  double total_cost;
  Time makespan;
  std::uint64_t hash;
};

// Captured from the Selection-API engine at PR 5; `alg`'s rows reproduce
// the pre-refactor kSeedEngineGoldens costs above, pinning the whole
// registry (batch AND streamed, audited) to these schedules. The
// alg-forwarded rows repeat alg's (see golden_policy below).
constexpr PolicyGolden kPolicyGoldens[] = {
    {"alg", 101ULL, 2940.5, 32, 0x0f32fd3947ee6634ULL},
    {"maxweight", 101ULL, 2969, 32, 0x29d8e70a73f91256ULL},
    {"islip", 101ULL, 4520, 32, 0x5f90196ba4dad009ULL},
    {"rotor", 101ULL, 52772, 246, 0x00ff4787dbd40ff4ULL},
    {"random", 101ULL, 4825, 32, 0x42f37e766451fe85ULL},
    {"fifo", 101ULL, 4506, 32, 0x670000fa8941651aULL},
    {"impact", 101ULL, 2940.5, 32, 0x0f32fd3947ee6634ULL},
    {"random-dispatch", 101ULL, 3148.5, 32, 0x5ba2538fbcdf8783ULL},
    {"round-robin", 101ULL, 3063.5, 32, 0xd7e45cd57a739e0bULL},
    {"jsq", 101ULL, 2970, 32, 0xe9f822b46830a417ULL},
    {"min-delay", 101ULL, 3323.5, 36, 0xf2d5b06e0aa09cd9ULL},
    {"direct-only", 101ULL, 3235.5, 36, 0xa4be27d60f580159ULL},
    {"alg-forwarded", 101ULL, 2940.5, 32, 0x0f32fd3947ee6634ULL},
    {"alg", 103ULL, 5376.333333333333, 56, 0x495a38077d357f3dULL},
    {"maxweight", 103ULL, 5398.4999999999991, 56, 0xf31533743d25360fULL},
    {"islip", 103ULL, 7510.333333333333, 56, 0x528356261f84554bULL},
    {"rotor", 103ULL, 87168, 522, 0x7a7e26a03b339efaULL},
    {"random", 103ULL, 8276.3333333333339, 56, 0x9472f7821700d325ULL},
    {"fifo", 103ULL, 7855.5, 56, 0xf07c51e6d8093034ULL},
    {"impact", 103ULL, 5376.333333333333, 56, 0x495a38077d357f3dULL},
    {"random-dispatch", 103ULL, 6045, 56, 0xa0023c8884b61ef5ULL},
    {"round-robin", 103ULL, 5539.1666666666661, 56, 0x7dcfa62ca7116390ULL},
    {"jsq", 103ULL, 5448.7499999999991, 56, 0xd36dd52f18d56ec2ULL},
    {"min-delay", 103ULL, 6407.5, 56, 0xbad24f4161eb9e68ULL},
    {"direct-only", 103ULL, 6407.5, 56, 0xbad24f4161eb9e68ULL},
    {"alg-forwarded", 103ULL, 5376.333333333333, 56, 0x495a38077d357f3dULL},
};

/// Forwards dispatch() to a wrapped policy and adds nothing else: the
/// shape of a timing decorator such as rdcnbench's TimedDispatch. No
/// policy declares that it reads the impact index; the engine enables the
/// index's weight structures on the first impact query, so ALG behind a
/// decorator must reproduce ALG's schedules.
class ForwardingDispatch final : public DispatchPolicy {
 public:
  explicit ForwardingDispatch(std::unique_ptr<DispatchPolicy> inner)
      : inner_(std::move(inner)) {}
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    return inner_->dispatch(engine, packet);
  }

 private:
  std::unique_ptr<DispatchPolicy> inner_;
};

/// named_policy, plus "alg-forwarded": ALG with its dispatcher wrapped in
/// a ForwardingDispatch.
PolicyFactory golden_policy(const std::string& name) {
  if (name != "alg-forwarded") return named_policy(name);
  PolicyFactory policy = alg_policy();
  policy.dispatcher = [inner = policy.dispatcher]() -> std::unique_ptr<DispatchPolicy> {
    return std::make_unique<ForwardingDispatch>(inner());
  };
  return policy;
}

TEST(EngineRegression, AllRegistryPoliciesMatchScheduleGoldensBatch) {
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const PolicyFactory policy = golden_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(it->second.topology());
    EngineOptions options;
    options.audit = true;
    const RunResult run = simulate(it->second, *dispatcher, *scheduler, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
  }
}

TEST(EngineRegression, ProbeEnabledRunsReproduceScheduleGoldens) {
  // ISSUE 7: the observability probe only observes -- enabling it (with an
  // event ring small enough to wrap) must reproduce every policy's golden
  // schedule hash bit-for-bit, while the report itself comes back coherent.
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const PolicyFactory policy = golden_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(it->second.topology());
    EngineOptions options;
    options.audit = true;
    options.probe.enabled = true;
    options.probe.event_capacity = 64;
    const RunResult run = simulate(it->second, *dispatcher, *scheduler, options);
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed << ": probe perturbed the schedule";
    EXPECT_EQ(run.makespan, golden.makespan) << golden.policy << " seed " << golden.seed;
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
    ASSERT_TRUE(run.probe.enabled) << golden.policy;
    const auto packets = static_cast<std::uint64_t>(it->second.num_packets());
    EXPECT_EQ(run.probe.counters[static_cast<std::size_t>(Counter::PacketsRetired)],
              packets)
        << golden.policy << " seed " << golden.seed;
  }
}

TEST(EngineRegression, AllRegistryPoliciesMatchScheduleGoldensStreamed) {
  // The same schedules must come out of the streaming engine mode fed the
  // recorded arrival sequence (audited): retired outcomes, reassembled in
  // id order, hash to the same golden fingerprints.
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const Instance& instance = it->second;
    const PolicyFactory policy = golden_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions options;
    options.audit = true;
    options.max_steps = default_max_steps(instance, 0);
    std::vector<PacketOutcome> outcomes(instance.num_packets());
    Engine engine(instance.topology(), *dispatcher, *scheduler, options,
                  [&outcomes](RetiredPacket&& packet) {
                    outcomes[static_cast<std::size_t>(packet.id)] = std::move(packet.outcome);
                  });
    const auto& packets = instance.packets();
    std::size_t next = 0;
    while (next < packets.size() || engine.busy()) {
      const Time* upcoming = next < packets.size() ? &packets[next].arrival : nullptr;
      engine.begin_step(upcoming);
      while (next < packets.size() && packets[next].arrival == engine.now()) {
        engine.inject(packets[next]);
        ++next;
      }
      engine.finish_step();
    }
    EXPECT_EQ(schedule_hash(outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(engine.aggregates().makespan, golden.makespan)
        << golden.policy << " seed " << golden.seed;
    EXPECT_NEAR(engine.aggregates().total_cost, golden.total_cost,
                1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
  }
}

// ------------------------------------------- deep-queue schedule goldens --
//
// The goldens above run 60-100-packet instances whose queues stay a few
// chunks deep, so almost every pending chunk is the head of its edge and a
// scheduler that saw only edge heads could not be told apart from one that
// saw every chunk. This instance parks two thirds of a 12-packet-per-step
// stream on one rack pair of an 8-rack pod (four edges, four chunks per
// step): the pending set peaks in the thousands and most chunks sit behind
// an edge head. Half the weights come from a four-value set, so chunk-
// weight ties exercise the arrival and id tie-breaks (the instance is
// testing::deep_queue_instance). Hashes were recorded from the engine that
// still handed select() the full pending list.

struct DeepRun {
  std::uint64_t hash = 0;
  Time makespan = 0;
  std::size_t pending_peak = 0;  ///< streamed runs only
};

DeepRun deep_batch(const Instance& instance, DispatchPolicy& dispatcher,
                   SchedulePolicy& scheduler, EngineOptions options,
                   const std::vector<TimedMutation>& schedule = {}) {
  options.audit = true;
  Engine engine(instance, dispatcher, scheduler, options);
  const RunResult run = engine.run(schedule);
  return {schedule_hash(run.outcomes), run.makespan, 0};
}

DeepRun deep_streamed(const Instance& instance, DispatchPolicy& dispatcher,
                      SchedulePolicy& scheduler) {
  EngineOptions options;
  options.audit = true;
  options.max_steps = default_max_steps(instance, 0);
  std::vector<PacketOutcome> outcomes(instance.num_packets());
  Engine engine(instance.topology(), dispatcher, scheduler, options,
                [&outcomes](RetiredPacket&& packet) {
                  outcomes[static_cast<std::size_t>(packet.id)] = std::move(packet.outcome);
                });
  DeepRun result;
  const auto& packets = instance.packets();
  std::size_t next = 0;
  while (next < packets.size() || engine.busy()) {
    const Time* upcoming = next < packets.size() ? &packets[next].arrival : nullptr;
    engine.begin_step(upcoming);
    while (next < packets.size() && packets[next].arrival == engine.now()) {
      engine.inject(packets[next]);
      ++next;
    }
    engine.finish_step();
    result.pending_peak =
        std::max(result.pending_peak, engine.pending_candidates().size());
  }
  result.hash = schedule_hash(outcomes);
  result.makespan = engine.aggregates().makespan;
  return result;
}

struct DeepGolden {
  const char* label;
  std::uint64_t hash;
  Time makespan;
};

constexpr DeepGolden kDeepPolicyGoldens[] = {
    {"alg", 0x61d4066690271ac6ULL, 1862},
    {"maxweight", 0xd0782e13bd72be06ULL, 2140},
    {"islip", 0x2a73972d470f974dULL, 2013},
    {"rotor", 0x1a4be953a1328640ULL, 28090},
    {"random", 0xbf80f6eed124ab66ULL, 2143},
    {"fifo", 0x4f4301ee2fa3596aULL, 2122},
    {"impact", 0x61d4066690271ac6ULL, 1862},
    {"random-dispatch", 0x0fdda515e374a650ULL, 3755},
    {"round-robin", 0x2885e1d3b13f42ceULL, 3721},
    {"jsq", 0x28da034c8a2a779eULL, 2164},
    {"min-delay", 0xa126d0049ff6ed5aULL, 2527},
    {"direct-only", 0x658c035c25e95e76ULL, 2701},
    {"alg-forwarded", 0x61d4066690271ac6ULL, 1862},
};

void expect_golden(const DeepRun& run, const DeepGolden& golden, const char* mode) {
  EXPECT_EQ(run.hash, golden.hash)
      << golden.label << " (" << mode << "): hash 0x" << std::hex << run.hash;
  EXPECT_EQ(run.makespan, golden.makespan) << golden.label << " (" << mode << ")";
}

TEST(DeepQueueGoldens, RegistryPoliciesBatchAndStreamed) {
  const Instance instance = testing::deep_queue_instance();
  for (const DeepGolden& golden : kDeepPolicyGoldens) {
    const PolicyFactory policy = golden_policy(golden.label);
    {
      auto dispatcher = policy.dispatcher();
      auto scheduler = policy.scheduler(instance.topology());
      expect_golden(deep_batch(instance, *dispatcher, *scheduler, {}), golden, "batch");
    }
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    const DeepRun streamed = deep_streamed(instance, *dispatcher, *scheduler);
    expect_golden(streamed, golden, "streamed");
    // The point of the instance: queues far deeper than one chunk per
    // edge, under every policy (peaks 2.1k-3.0k packets when recorded).
    EXPECT_GE(streamed.pending_peak, std::size_t{2000}) << golden.label;
  }
}

TEST(DeepQueueGoldens, RandomizedSchedulers) {
  const Instance instance = testing::deep_queue_instance();
  {
    ImpactDispatcher dispatcher;
    PerturbedStableScheduler scheduler(0.3, 7);
    expect_golden(deep_batch(instance, dispatcher, scheduler, {}),
                  {"perturbed-stable", 0x03e5102fe556c9cbULL, 1864}, "batch");
  }
  {
    ImpactDispatcher dispatcher;
    RandomSerialDictatorScheduler scheduler(7);
    expect_golden(deep_batch(instance, dispatcher, scheduler, {}),
                  {"serial-dictator", 0x62ea7dfc824a8419ULL, 1876}, "batch");
  }
}

TEST(DeepQueueGoldens, AlgExtensions) {
  const Instance instance = testing::deep_queue_instance();
  {
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    expect_golden(deep_batch(instance, dispatcher, scheduler, {.endpoint_capacity = 2}),
                  {"alg capacity 2", 0x3a4dedb0c4b6bde4ULL, 1816}, "batch");
  }
  {
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    expect_golden(deep_batch(instance, dispatcher, scheduler, {.reconfig_delay = 1}),
                  {"alg reconfig_delay 1", 0x05999705c3da7455ULL, 1958}, "batch");
  }
}

TEST(DeepQueueGoldens, StagedEdgeKillRequeues) {
  // Kill two of the hot pair's four edges mid-backlog and requeue their
  // untouched packets; restore one of them later.
  const Instance instance = testing::deep_queue_instance();
  std::vector<EdgeIndex> hot;
  instance.topology().candidate_edges_into(0, 1, hot);
  ASSERT_GE(hot.size(), std::size_t{2});
  std::vector<TimedMutation> schedule(2);
  schedule[0].at = 150;
  schedule[0].mutation.kill_edges = {hot[0], hot[1]};
  schedule[0].mutation.dead_policy = DeadPolicy::Requeue;
  schedule[1].at = 400;
  schedule[1].mutation.restore_edges = {hot[0]};
  const DeepGolden goldens[] = {{"alg staged requeue", 0x4b6b1065ef9f9efdULL, 3291},
                                {"random staged requeue", 0x8835ead7a673a962ULL, 6865}};
  for (const DeepGolden& golden : goldens) {
    const PolicyFactory policy = named_policy(golden.label[0] == 'a' ? "alg" : "random");
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    expect_golden(deep_batch(instance, *dispatcher, *scheduler, {}, schedule), golden,
                  "batch");
  }
}

/// Delegating scheduler that asserts the engine's edge-head contract
/// against heads it derives itself: a scan of every pending packet (the
/// per-transmitter queues), keyed by the instance's arrivals. With
/// `check_full_list` it also pins Engine::pending_by_priority to the sorted
/// scan -- asking for that list turns on its incremental maintenance,
/// which must leave the schedule unchanged.
class ContractCheckingScheduler final : public SchedulePolicy {
 public:
  explicit ContractCheckingScheduler(const Instance& instance,
                                     bool check_full_list = false)
      : instance_(&instance), check_full_list_(check_full_list) {}

  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override {
    EXPECT_TRUE(out.empty());  // the engine hands the scratch cleared
    EXPECT_EQ(&candidates, &engine.edge_heads());
    std::vector<Candidate> pending;
    std::map<EdgeIndex, std::pair<Candidate, Candidate>> heads;  // priority, FIFO
    for (NodeIndex t = 0; t < engine.topology().num_transmitters(); ++t) {
      for (const PacketIndex p : engine.pending_on_transmitter(t)) {
        const Candidate c = view(engine, p);
        EXPECT_GT(c.remaining, 0);
        pending.push_back(c);
        const auto [it, fresh] = heads.try_emplace(c.edge, c, c);
        if (fresh) continue;
        if (chunk_higher_priority(c, it->second.first)) it->second.first = c;
        const Candidate& first = it->second.second;
        if (c.arrival < first.arrival ||
            (c.arrival == first.arrival && c.packet < first.packet)) {
          it->second.second = c;
        }
      }
    }
    EXPECT_EQ(pending.size(), engine.pending_candidates().size());
    std::vector<Candidate> expected;
    for (const auto& [edge, pair] : heads) {
      expected.push_back(pair.first);
      if (pair.second.packet != pair.first.packet) expected.push_back(pair.second);
    }
    std::sort(expected.begin(), expected.end(), chunk_higher_priority);
    expect_same(candidates, expected, "edge-head list");
    if (check_full_list_) {
      std::sort(pending.begin(), pending.end(), chunk_higher_priority);
      expect_same(engine.pending_by_priority(), pending, "pending_by_priority");
    }
    const ActiveEndpoints& active = engine.active_endpoints(candidates);
    for (const Candidate& c : candidates) {
      // The active-endpoint remap round-trips for every candidate endpoint.
      const auto t_rank = static_cast<std::size_t>(active.transmitter_rank(c.transmitter));
      const auto r_rank = static_cast<std::size_t>(active.receiver_rank(c.receiver));
      ASSERT_LT(t_rank, active.num_transmitters());
      ASSERT_LT(r_rank, active.num_receivers());
      EXPECT_EQ(active.transmitters[t_rank], c.transmitter);
      EXPECT_EQ(active.receivers[r_rank], c.receiver);
    }
    ++rounds_checked;
    inner_.select(engine, now, candidates, out);
  }

  int rounds_checked = 0;

 private:
  Candidate view(const Engine& engine, PacketIndex p) const {
    Candidate c;
    c.packet = p;
    c.edge = engine.assigned_edge(p);
    c.transmitter = engine.topology().edge(c.edge).transmitter;
    c.receiver = engine.topology().edge(c.edge).receiver;
    c.chunk_weight = engine.chunk_weight(p);
    c.arrival = instance_->packets()[static_cast<std::size_t>(p)].arrival;
    c.remaining = engine.remaining_chunks(p);
    return c;
  }

  static void expect_same(const std::vector<Candidate>& got,
                          const std::vector<Candidate>& want, const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].packet, want[i].packet) << what << " entry " << i;
      EXPECT_EQ(got[i].edge, want[i].edge) << what << " entry " << i;
      EXPECT_EQ(got[i].transmitter, want[i].transmitter) << what << " entry " << i;
      EXPECT_EQ(got[i].receiver, want[i].receiver) << what << " entry " << i;
      EXPECT_EQ(got[i].chunk_weight, want[i].chunk_weight) << what << " entry " << i;
      EXPECT_EQ(got[i].arrival, want[i].arrival) << what << " entry " << i;
      EXPECT_EQ(got[i].remaining, want[i].remaining) << what << " entry " << i;
    }
  }

  const Instance* instance_;
  bool check_full_list_;
  StableMatchingScheduler inner_;
};

TEST(EngineRegression, EdgeHeadListMatchesAnIndependentScan) {
  const Instance instance = testing::make_varied_instance(103);
  ImpactDispatcher dispatcher;
  ContractCheckingScheduler scheduler(instance);
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_TRUE(all_delivered(instance, run));
  EXPECT_GT(scheduler.rounds_checked, 10);
}

TEST(EngineRegression, ContractHoldsUnderMigrationAndCapacity) {
  const Instance instance = testing::make_varied_instance(101);
  for (const bool full_list : {false, true}) {
    {
      ImpactDispatcher dispatcher;
      ContractCheckingScheduler scheduler(instance, full_list);
      EngineOptions options;
      options.redispatch_queued = true;
      options.audit = true;  // the auditor's re-dispatch ledger path
      const RunResult run = simulate(instance, dispatcher, scheduler, options);
      EXPECT_TRUE(all_delivered(instance, run));
    }
    {
      ImpactDispatcher dispatcher;
      ContractCheckingScheduler scheduler(instance, full_list);
      EngineOptions options;
      options.endpoint_capacity = 3;
      options.audit = true;
      const RunResult run = simulate(instance, dispatcher, scheduler, options);
      EXPECT_TRUE(all_delivered(instance, run));
    }
  }
}

TEST(EngineRegression, ContractHoldsOnDeepQueues) {
  // Thousands pending behind a few edge heads; the full list is turned on
  // mid-run (first round), and the schedule must still be alg's golden.
  const Instance instance = testing::deep_queue_instance();
  ImpactDispatcher dispatcher;
  ContractCheckingScheduler scheduler(instance, /*check_full_list=*/true);
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_EQ(schedule_hash(run.outcomes), kDeepPolicyGoldens[0].hash);
  EXPECT_GT(scheduler.rounds_checked, 1000);
}

// ------------------------------------------ EngineOptions interactions --

TEST(EngineOptionsMatrix, ReconfigDelayRequiresUnitCapacity) {
  const Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.reconfig_delay = 2;
  options.endpoint_capacity = 2;
  EXPECT_THROW(Engine(instance, dispatcher, scheduler, options), std::invalid_argument);
  // Each extension alone is accepted.
  options.endpoint_capacity = 1;
  EXPECT_NO_THROW(Engine(instance, dispatcher, scheduler, options));
  options.reconfig_delay = 0;
  options.endpoint_capacity = 2;
  EXPECT_NO_THROW(Engine(instance, dispatcher, scheduler, options));
}

TEST(EngineOptionsMatrix, TraceRejectsEveryNonAnalysisExtension) {
  const Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  const auto rejected = [&](EngineOptions options) {
    options.record_trace = true;
    EXPECT_THROW(Engine(instance, dispatcher, scheduler, options), std::invalid_argument);
  };
  rejected({.redispatch_queued = true});
  rejected({.reconfig_delay = 1});
  rejected({.endpoint_capacity = 2});
  rejected({.speedup_rounds = 2});
  // The analysis model itself records fine.
  EngineOptions analysis;
  analysis.record_trace = true;
  EXPECT_NO_THROW(Engine(instance, dispatcher, scheduler, analysis));
}

TEST(EngineOptionsMatrix, ReconfigDelayAndMigrationCompose) {
  // Both extensions together: queued packets may re-route while endpoints
  // retune; delivery and accounting must survive the interaction.
  for (const std::uint64_t seed : {1ULL, 4ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.reconfig_delay = 2;
    options.redispatch_queued = true;
    options.audit = true;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
  }
}

TEST(EngineOptionsMatrix, ReconfigDelayNeverBeatsFreeRetuning) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher d0, d1;
    StableMatchingScheduler s0, s1;
    EngineOptions free_retune;
    free_retune.record_trace = false;
    EngineOptions delayed = free_retune;
    delayed.reconfig_delay = 3;
    const double base = simulate(instance, d0, s0, free_retune).total_cost;
    const double slowed = simulate(instance, d1, s1, delayed).total_cost;
    EXPECT_GE(slowed, base - 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rdcn
