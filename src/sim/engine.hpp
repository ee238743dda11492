#pragma once

// Time-stepped simulation engine for the model of Section II.
//
// Timeline per integral step tau:
//   1. every packet with arrival == tau is dispatched (in sequence order)
//      and its chunks join the pending pool;
//   2. `speedup_rounds` scheduling rounds run; each transmits a matching of
//      pending chunks (one chunk per busy transmitter/receiver per round);
//   3. transmitted chunks complete at tau + 1 + d(src,t) + d(r,dest) and
//      their weighted latency w_c * (completion - a_p) is accounted.
//
// speedup_rounds = 1 is the paper's unit-speed algorithm (the analysis puts
// the 1/(2+eps) slowdown on OPT instead); k > 1 realizes an integral
// algorithm-side speedup for the ablation experiments.
//
// One step core (begin_step / per-packet admit / finish_step) and one
// retirement path: every completed or dropped packet leaves through a
// RetireSink. The two constructors differ only in who feeds arrivals and
// who owns the sink, so a streamed run over a recorded arrival sequence
// reproduces the batch schedule bit-for-bit:
//
//  * batch: constructed from an Instance; the engine installs a sink that
//    records each PacketOutcome by id, and run(schedule) -- the one drive
//    loop, an empty schedule being the plain run -- feeds the packet
//    sequence and returns a RunResult with every outcome;
//  * streaming: constructed from a Topology plus the caller's sink; the
//    caller injects packets online (begin_step / inject / finish_step), so
//    resident per-packet state is O(in-flight), not O(total served) --
//    the mode behind traffic/'s open-loop steady-state runs.
//
// Hot-path design (the engine is the inner loop of every bench and the
// ScenarioRunner fan-out):
//  * pending chunks live per edge (sim/pending_store.hpp): an intrusive
//    pairing heap in chunk priority order and a linked list in FIFO order,
//    over a node pool sized by the backlog. A packet's (chunk_weight,
//    arrival, id) key never changes, so listing and unlisting cost
//    O(log n) amortized, and each edge's priority head and FIFO head are
//    the heap root and the list front;
//  * a scheduling round reads only heads: SchedulePolicy::select gets the
//    edge-head list (at most two entries per edge, priority-sorted). Edges
//    whose heads changed are stamped dirty and re-listed at the next round
//    in one merging pass over O(edges) entries, never O(backlog), that
//    also refreshes every listed head's `remaining`. The full priority-ordered
//    list of every pending chunk exists only for the policies that ask for
//    it (Engine::pending_by_priority: the randomized schedulers) and for
//    trace recording, and is then kept incrementally;
//  * the steady-state round loop performs zero heap allocations: the
//    scheduler fills an engine-owned Selection scratch in place, the
//    reconfiguration-delay filter and the head refresh work on reusable
//    buffers, and every registry policy keeps its own working storage in
//    members (pinned by tests/test_hotpath.cpp, also at 10k+ pending);
//  * active-endpoint compression: active_endpoints() exposes a per-round
//    dense remap of only the transmitters/receivers that currently carry
//    pending candidates, so matching computations (MaxWeight's Hungarian,
//    the greedy/iSLIP passes) run over k_active-sized state instead of
//    topology-sized arrays;
//  * dispatch-side queries go through an incremental per-endpoint impact
//    index (sim/impact_index.hpp): integer chunk-load counters make JSQ's
//    edge load O(1), and weight-keyed order-statistic treaps answer
//    impact_of's |H|/w(L) split in O(log n) instead of scanning both
//    endpoint queues per candidate edge. The engine feeds the index at the
//    same three lifecycle points that maintain the pending store
//    (dispatch, per-chunk service, unlisting); the weight structures are enabled
//    lazily by the first impact_split() call and decay during long
//    non-impact drains, so non-impact policies pay only the O(1) counters;
//  * per-packet state lives in a sliding window of dense arrays indexed by
//    (id - window base); retired prefixes are compacted away amortized
//    O(1), which is what bounds streaming memory; batch mode preallocates
//    the window and outcome arrays from the instance size;
//  * matching validation uses round-stamped scratch arrays instead of
//    per-round allocations sized by the topology;
//  * time advances event-driven: when no chunk is pending the clock jumps
//    to the next arrival instead of simulating empty steps.

#include <functional>
#include <memory>
#include <vector>

#include "net/instance.hpp"
#include "sim/chunk_steps.hpp"
#include "util/fault.hpp"
#include "sim/impact_index.hpp"
#include "sim/observer.hpp"
#include "sim/pending_store.hpp"
#include "sim/policy.hpp"
#include "sim/probe.hpp"

namespace rdcn {

struct EngineOptions {
  int speedup_rounds = 1;
  /// Record per-step blocking information (needed by the charging auditor
  /// and the figure benches). Only meaningful with speedup_rounds == 1,
  /// endpoint_capacity == 1 and reconfig_delay == 0 (the analysis model).
  /// Batch mode only.
  bool record_trace = false;
  /// Hard stop; exceeding it throws, catching schedulers that starve
  /// packets. Batch mode: 0 derives a bound from Instance::horizon_bound().
  /// Streaming mode: 0 disables the guard (the driver owns termination).
  Time max_steps = 0;
  /// b-matching extension: each transmitter/receiver may carry up to this
  /// many simultaneous edges per step (each edge still carries one chunk).
  /// 1 = the paper's matching model.
  int endpoint_capacity = 1;
  /// Reconfiguration-delay extension: retargeting an endpoint to a new
  /// edge keeps it dark for this many steps (0 = the paper's free
  /// reconfiguration). Requires endpoint_capacity == 1.
  Delay reconfig_delay = 0;
  /// Restricted-migration ablation: every step, packets that have not yet
  /// transmitted ANY chunk are handed back to the dispatcher (in their
  /// original order) and may change route. The paper's ALG is
  /// non-migratory (false); OPT in the analysis is fully migratory -- this
  /// probes the gap for queued packets. Incompatible with record_trace.
  /// Batch mode only.
  bool redispatch_queued = false;
  /// Per-step invariant audit (check/): the engine carries an
  /// InvariantAuditor that independently re-derives matching feasibility,
  /// conservation, clock monotonicity and per-packet completion accounting
  /// from the observed events, throwing AuditFailure on any violation.
  /// Works in both modes; costs a constant factor, so it is off by default
  /// and turned on by tests, golden replays and the fuzz driver.
  bool audit = false;
  /// Observability (sim/probe.hpp): phase profiler + counter/gauge
  /// registry over the scheduling round, optional raw-span ring for Chrome
  /// trace export. Purely observational -- schedules are bit-for-bit
  /// identical either way -- and allocation-free at steady state when on.
  /// Both modes. (Kept after the scalar options so their designated
  /// initializers stay valid.)
  ProbeConfig probe{};
  /// Cooperative cancellation (util/fault.hpp): when set, begin_step
  /// checks the token (one relaxed load) and throws CancelledError at the
  /// first step boundary after it fires -- the same step-edge contract as
  /// apply_mutation. Null (the default, when no deadline is armed) costs
  /// one pointer test on the hot path. The token must outlive the run.
  const CancelToken* cancel = nullptr;
};

/// Per-packet outcome of a run.
struct PacketOutcome {
  RouteDecision route;
  /// Transmit step of chunk i (reconfigurable route only), size d(e_p).
  ChunkSteps chunk_transmit_steps;
  Time completion = 0;          ///< time the last fraction reaches dest(p)
  double weighted_latency = 0;  ///< sum over fractions of w*x*(finish - a_p)
  /// The packet never completed: its edge was killed by a StageMutation (or
  /// it arrived for a pair with no surviving route). completion stays 0;
  /// weighted_latency keeps the chunks already accounted (wasted service).
  bool dropped = false;
};

/// What happens to in-flight packets whose assigned edge a StageMutation
/// kills. Fixed-route packets retire at dispatch and are never affected.
enum class DeadPolicy {
  /// Retire immediately as dropped (outcome.dropped; partial latency kept).
  Drop,
  /// Packets with no transmitted chunk are handed back to the dispatcher
  /// and may re-route over surviving edges or the fixed layer; packets
  /// mid-transmit still drop (routing is non-migratory, Section II).
  Requeue,
};

/// One atomic engine/topology mutation. Valid only at a step boundary
/// (between finish_step() and the next begin_step()): the engine patches
/// the per-edge pending store, the impact index and the affected in-flight
/// packets together, then cross-checks the index against a rebuild from
/// scratch. Restores apply before kills, so an edge named by both ends up
/// dead.
struct StageMutation {
  std::vector<EdgeIndex> kill_edges;
  std::vector<EdgeIndex> restore_edges;
  /// Rack granularity: index r kills/restores every reconfigurable edge
  /// whose transmitter attaches to source r or whose receiver attaches to
  /// destination r. Fixed direct links never die (the hybrid safety net).
  std::vector<NodeIndex> kill_racks;
  std::vector<NodeIndex> restore_racks;
  int speedup_rounds = 0;     ///< scheduling rounds per step; 0 = keep current
  int endpoint_capacity = 0;  ///< b-matching capacity; 0 = keep current
  DeadPolicy dead_policy = DeadPolicy::Drop;

  bool is_noop() const noexcept {
    return kill_edges.empty() && restore_edges.empty() && kill_racks.empty() &&
           restore_racks.empty() && speedup_rounds == 0 && endpoint_capacity == 0;
  }
};

/// Effect summary of one Engine::apply_mutation call.
struct MutationStats {
  std::size_t edges_killed = 0;    ///< alive -> dead transitions
  std::size_t edges_restored = 0;  ///< dead -> alive transitions
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_requeued = 0;
};

/// A mutation pinned to a clock time: it takes effect for every step with
/// now() >= at (drive loops apply it before the first such step begins,
/// clamping idle jumps so no stage edge is skipped).
struct TimedMutation {
  Time at = 0;
  StageMutation mutation;
};

/// What the retirement sink receives when a packet completes
/// (for fixed-route packets: immediately at dispatch; for reconfigurable
/// routes: at the step its last chunk transmits).
struct RetiredPacket {
  PacketIndex id = 0;
  Time arrival = 0;
  Weight weight = 0.0;
  PacketOutcome outcome;
};

/// Retirement callback. Called once per packet, in completion order (not
/// id order).
using RetireSink = std::function<void(RetiredPacket&&)>;

/// Dense remap of the endpoints that currently carry pending candidates
/// (built per scheduling round; see Engine::active_endpoints). Ranks are
/// assigned in order of first appearance in the priority-sorted candidate
/// list, so they are deterministic in the engine state -- and identical for
/// the edge-head list and the full list: an endpoint first appears at its
/// highest-priority chunk, which heads its edge.
struct ActiveEndpoints {
  std::vector<NodeIndex> transmitters;  ///< dense rank -> topology id
  std::vector<NodeIndex> receivers;

  std::size_t num_transmitters() const noexcept { return transmitters.size(); }
  std::size_t num_receivers() const noexcept { return receivers.size(); }

  /// topology id -> dense rank. Valid ONLY for endpoints that appear in
  /// the candidate list the map was built from (entries for inactive
  /// endpoints are stale, deliberately: no O(topology) clear per round).
  std::int32_t transmitter_rank(NodeIndex t) const {
    return transmitter_rank_[static_cast<std::size_t>(t)];
  }
  std::int32_t receiver_rank(NodeIndex r) const {
    return receiver_rank_[static_cast<std::size_t>(r)];
  }

 private:
  friend class Engine;
  std::vector<std::int32_t> transmitter_rank_;
  std::vector<std::int32_t> receiver_rank_;
};

/// Per-step record used by the charging auditor: for every packet pending
/// at the step, whether one of its chunks was transmitted, and if not,
/// which packet's transmitted chunk blocked it.
struct StepPacketRecord {
  PacketIndex packet = 0;
  bool transmitted = false;
  PacketIndex blocker = -1;  ///< valid iff !transmitted
};

struct StepRecord {
  Time time = 0;
  std::vector<StepPacketRecord> packets;
  std::size_t matching_size = 0;
};

struct RunResult {
  std::vector<PacketOutcome> outcomes;  ///< batch mode only; empty streamed
  double total_cost = 0.0;     ///< total weighted fractional latency
  double reconfig_cost = 0.0;  ///< share routed over the reconfigurable layer
  double fixed_cost = 0.0;     ///< share routed over fixed direct links
  Time makespan = 0;           ///< last completion time
  Time steps_simulated = 0;
  std::vector<StepRecord> trace;  ///< nonempty iff record_trace
  ProbeReport probe;  ///< filled (enabled = true) iff EngineOptions::probe
};

class Engine {
 public:
  /// Batch mode: simulate a full Instance via run().
  Engine(const Instance& instance, DispatchPolicy& dispatcher, SchedulePolicy& scheduler,
         EngineOptions options = {});

  /// Streaming mode: packets are injected online in id order (ids
  /// sequential from 0, arrivals nondecreasing); completed packets leave
  /// through `sink`. record_trace and redispatch_queued are unavailable.
  Engine(const Topology& topology, DispatchPolicy& dispatcher, SchedulePolicy& scheduler,
         EngineOptions options, RetireSink sink);

  /// The batch-mode sink captures `this`: an engine stays where it was built.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the full simulation to completion and returns the result; batch
  /// mode only. Mutations in `schedule`, sorted by `at` (nondecreasing),
  /// are applied at step boundaries so that every step with now() >= at
  /// executes post-mutation. The idle jump is clamped to the next stage
  /// edge, so schedules are honored even across arrival gaps. A non-empty
  /// schedule is incompatible with record_trace and redispatch_queued.
  RunResult run(const std::vector<TimedMutation>& schedule = {});

  // --- stage mutations ----------------------------------------------------

  /// Applies one mutation atomically at a step boundary (throws between
  /// begin_step and finish_step). Patches the pending store and the
  /// impact index together, drops or requeues in-flight packets on
  /// dead edges, then cross-checks the index bit-for-bit against a rebuild
  /// from scratch. Both modes.
  MutationStats apply_mutation(const StageMutation& mutation);

  /// False only for reconfigurable edges killed by a StageMutation.
  bool edge_alive(EdgeIndex e) const noexcept {
    return dead_edges_ == 0 || edge_alive_[static_cast<std::size_t>(e)] != 0;
  }
  std::size_t dead_edge_count() const noexcept { return dead_edges_; }

  /// candidate_edges_into() restricted to alive edges -- what dispatchers
  /// route over. The common no-failures case is a pass-through (zero-cost:
  /// one integer compare).
  void viable_edges_into(NodeIndex source, NodeIndex destination,
                         std::vector<EdgeIndex>& out) const;

  /// True if source->destination still has some way through: a fixed
  /// direct link, or at least one alive reconfigurable edge.
  bool has_viable_route(NodeIndex source, NodeIndex destination) const;

  std::uint64_t packets_dropped() const noexcept { return dropped_count_; }
  std::uint64_t packets_requeued() const noexcept { return requeued_count_; }

  // --- streaming interface ------------------------------------------------
  //
  // One engine step is exactly run()'s loop body:
  //   begin_step(next_arrival);              // clock advance + step guard
  //   while (arrival == now()) inject(p);    // dispatch this step's packets
  //   finish_step();                         // scheduling rounds, retirement
  // Driving a streaming engine with a pre-recorded arrival sequence
  // therefore reproduces the batch engine's schedule bit-for-bit.

  /// True while any chunk is pending on the reconfigurable layer.
  bool busy() const noexcept { return !store_.empty(); }

  /// Advances the clock one step -- jumping to *next_arrival when idle --
  /// and counts the step against max_steps. Pass the arrival time of the
  /// earliest not-yet-injected packet, or nullptr when the arrival stream
  /// is exhausted (drain).
  void begin_step(const Time* next_arrival);

  /// Dispatches one packet at the current step (packet.arrival must equal
  /// now(), packet.id must be the next sequential id). Streaming mode.
  void inject(const Packet& packet);

  /// Runs the step's scheduling rounds and retires completed packets.
  void finish_step();

  /// Aggregate costs/makespan accumulated so far (streaming mode: the
  /// outcomes vector stays empty; per-packet data leaves via the sink).
  const RunResult& aggregates() const noexcept { return result_; }

  /// Packets dispatched but not yet retired.
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Current / peak number of resident per-packet window slots -- the
  /// memory-bounding quantity: O(in-flight span), not O(total served).
  std::size_t resident_slots() const noexcept { return state_.size(); }
  std::size_t peak_resident_slots() const noexcept { return peak_resident_; }
  std::uint64_t packets_dispatched() const noexcept { return dispatched_count_; }
  std::uint64_t packets_retired() const noexcept { return retired_count_; }

  // --- read-only view for policies ---------------------------------------

  const Topology& topology() const noexcept { return *topology_; }
  const EngineOptions& options() const noexcept { return options_; }
  Time now() const noexcept { return now_; }

  /// Packets committed to a reconfigurable edge at transmitter t / receiver
  /// r that still have untransmitted chunks, edge by edge in FIFO order.
  /// Built from the pending store on request (O(packets there)); the
  /// reference stays valid until the next call for the same side. The
  /// dispatch hot paths never scan these (they query the impact index
  /// below); they are the membership view for check/'s naive-scan oracle.
  const std::vector<PacketIndex>& pending_on_transmitter(NodeIndex t) const {
    return store_.on_transmitter(t);
  }
  const std::vector<PacketIndex>& pending_on_receiver(NodeIndex r) const {
    return store_.on_receiver(r);
  }

  /// The per-edge store of pending reconfigurable-route packets (one entry
  /// per packet; size() is the O(1) total pending count).
  const PendingStore& pending_candidates() const noexcept { return store_; }

  /// The edge-head list the last scheduling round handed to
  /// SchedulePolicy::select (see its contract); refreshed at the start of
  /// every round.
  const std::vector<Candidate>& edge_heads() const noexcept { return heads_; }

  /// Every pending chunk, in decreasing chunk priority, with current
  /// `remaining` -- for policies that need the whole backlog (one RNG draw
  /// per chunk). Built from the store on the first call, then kept up to
  /// date incrementally (same-step arrivals are merged at the next call or
  /// round), so only engines whose policy asks for it pay O(pending) per
  /// round. `mutable` state behind a const view, like the impact index.
  const std::vector<Candidate>& pending_by_priority() const;

  /// Dense remap of the endpoints carrying candidates in `candidates`.
  /// When called on the engine's own edge-head list (the normal select()
  /// path) the map is built at most once per scheduling round
  /// (round-stamped); a foreign list -- bench harnesses isolating one
  /// select call -- rebuilds into the same reusable buffers. Either way
  /// the build allocates nothing at steady state.
  const ActiveEndpoints& active_endpoints(const std::vector<Candidate>& candidates) const;

  /// Per-packet accessors; valid for pending (dispatched, unretired)
  /// packets -- the ones policies see in queues and candidate lists.
  EdgeIndex assigned_edge(PacketIndex p) const { return state_[slot(p)].route.edge; }
  std::int64_t remaining_chunks(PacketIndex p) const { return remaining_[slot(p)]; }
  Weight chunk_weight(PacketIndex p) const { return chunk_weight_[slot(p)]; }
  /// Transmitter of the packet's assigned edge (-1 on the fixed route); a
  /// dense mirror so the dispatch-time queue scans (impact_of, JSQ) avoid
  /// chasing PacketState + the topology edge array per entry.
  NodeIndex assigned_transmitter(PacketIndex p) const { return assigned_transmitter_[slot(p)]; }

  /// The incremental impact index's always-on integer-load view (JSQ's
  /// edge_load, pair grouping). Never enables the weight structures.
  const ImpactIndex& impact_index() const noexcept { return impact_index_; }

  /// The observability probe; null unless EngineOptions::probe.enabled.
  /// Streaming drivers read it live (telemetry windows diff its report);
  /// batch mode also copies the final report into RunResult::probe.
  const Probe* probe() const noexcept { return probe_; }
  Probe* probe() noexcept { return probe_; }

  /// O(log n) |H_p(e)| / w(L_p(e)) split at `threshold` = w_p/d(e) -- the
  /// hot path behind impact_of, O(1) at shallow queues. Enables (or
  /// rebuilds after decay) the index's weight structures on first use;
  /// `mutable` for the same reason as the active-endpoint cache: a
  /// lazily-built view behind the const policy interface.
  ImpactSplit impact_split(EdgeIndex e, double threshold) const {
    if (probe_ == nullptr && impact_index_.weight_ready()) {
      return impact_index_.edge_split(e, threshold);
    }
    return impact_split_slow(e, threshold);
  }

  /// Per-edge constants derived from the topology once at construction.
  /// Folding them into one cache line per edge keeps the per-candidate
  /// dispatch math (impact_of's deterministic terms) and the per-chunk
  /// completion accounting off the topology's bounds-checked scattered
  /// arrays. base_coeff keeps the exact association of the formula it
  /// replaces, so Delta values are bit-identical.
  struct EdgeMeta {
    double base_coeff = 0.0;  ///< d(u) + (d(e) + 1)/2 + d(v)
    double delay = 1.0;       ///< d(e)
    Delay attach_tail = 0;    ///< d(src(t), t) + d(r, dest(r))
    NodeIndex transmitter = 0;
    NodeIndex receiver = 0;
  };
  const EdgeMeta& edge_meta(EdgeIndex e) const {
    return edge_meta_[static_cast<std::size_t>(e)];
  }

 private:
  struct PacketState {
    RouteDecision route;
    Time arrival = 0;
    Weight weight = 0.0;
    /// Endpoints kept per packet so stage mutations can re-dispatch or
    /// route-check in-flight packets without an Instance (streaming mode
    /// has no packet sequence to look them up in).
    NodeIndex source = 0;
    NodeIndex destination = 0;
    bool dispatched = false;
    bool retired = false;
  };

  /// Shared constructor tail; `max_pending` bounds the packets pending at
  /// once (the instance size in batch mode) and sizes the head buffers.
  void init(EngineOptions options, std::size_t max_pending);
  std::size_t slot(PacketIndex p) const {
    return static_cast<std::size_t>(p - window_base_);
  }
  /// Creates the window slot for the next sequential packet id.
  void append_slot(const Packet& packet);
  /// Retires a completed packet: audit and count it, then deliver().
  void retire_packet(PacketIndex packet);
  /// Moves a retired or dropped packet's outcome out of the window into
  /// the sink and compacts the window's retired prefix.
  void deliver(PacketIndex packet);
  void compact_window();
  void dispatch_arrivals();
  /// Routes one arriving packet (the body shared by dispatch_arrivals and
  /// inject): opens its window slot, then dispatches it, or drops it when
  /// failures severed its pair.
  void admit(const Packet& packet);
  /// Applies a dispatch decision to a packet (enqueue on edge or fixed).
  void apply_route(const Packet& packet, const RouteDecision& route);
  /// The Candidate view of a pending packet, from the per-slot arrays.
  Candidate candidate_of(PacketIndex packet) const;
  /// Decreasing chunk priority between two pending packets.
  bool higher_priority(PacketIndex a, PacketIndex b) const;
  /// True iff `packet` is in the window and listed in the store.
  bool is_pending(PacketIndex packet) const;
  /// Queues edge e's entries of the edge-head list for the next refresh.
  void mark_dirty(EdgeIndex e);
  /// Re-lists the heads of every edge whose heads changed since the last
  /// round (one merging pass into the spare buffer) and refreshes every
  /// entry's `remaining`.
  void refresh_heads();
  /// Folds arrivals staged since the last call into pending_by_priority.
  void merge_by_priority() const;
  /// The entry of a pending packet in a priority-sorted list that holds it.
  Candidate& listed_entry(std::vector<Candidate>& list, PacketIndex packet) const;
  /// Lists a freshly routed packet's chunks on its edge.
  void list_pending(PacketIndex packet, EdgeIndex e);
  /// Removes a not-yet-finished packet from the pending structures.
  void unlist_pending(PacketIndex packet);
  /// Fills `index`'s weight structures from the pending store.
  void rebuild_impact_weights(ImpactIndex& index) const;
  /// impact_split with the probe on or the weight structures off.
  ImpactSplit impact_split_slow(EdgeIndex e, double threshold) const;
  /// Restricted migration: re-dispatches packets with no transmitted chunk.
  void redispatch_queued_packets();
  /// Sorts packet ids by (arrival, id): the deterministic, arrival-fair
  /// order in which both re-dispatch paths hand packets back.
  void sort_by_arrival(std::vector<PacketIndex>& packets) const;
  /// Hands an unlisted, untransmitted packet back to the dispatcher
  /// (queued redispatch, and requeue off an edge a mutation killed).
  void redispatch(PacketIndex packet);
  /// One scheduling round; returns number of chunks transmitted.
  std::size_t schedule_round(bool record);
  /// Retires `packet` without completion: marks the outcome dropped and
  /// delivers it like a normal retirement.
  void drop_packet(PacketIndex packet);
  /// Verifies the incremental impact index against a rebuild from scratch
  /// (integer loads always; treap splits when the weight structures are
  /// live). Throws std::logic_error on any mismatch. Called after every
  /// apply_mutation -- mutations are cold, rebuilds are O(n log n).
  void crosscheck_impact_index();

  const Instance* instance_ = nullptr;  ///< null in streaming mode
  const Topology* topology_ = nullptr;
  DispatchPolicy* dispatcher_;
  SchedulePolicy* scheduler_;
  EngineOptions options_;
  /// Every retirement goes here: the caller's sink when streaming, an
  /// outcome recorder into result_ in batch mode.
  RetireSink sink_;
  std::unique_ptr<EngineObserver> auditor_;  ///< set iff options_.audit
  std::unique_ptr<Probe> probe_store_;  ///< set iff options_.probe.enabled
  /// Raw mirror of probe_store_: the hot-path sites branch on one pointer;
  /// const views (impact_split) still time themselves through it.
  Probe* probe_ = nullptr;

  /// Reconfiguration-delay state: what each endpoint is tuned (or tuning)
  /// to, and when it becomes usable. Only consulted when reconfig_delay > 0.
  struct EndpointConfig {
    EdgeIndex target = kInvalidEdge;
    Time ready = 0;
  };
  std::vector<EndpointConfig> transmitter_config_;
  std::vector<EndpointConfig> receiver_config_;

  Time now_ = 0;
  std::size_t next_arrival_ = 0;  ///< batch: first not-yet-dispatched packet

  /// Sliding per-packet window: slot i holds packet window_base_ + i.
  /// Slots are appended in id order at dispatch and compacted away once a
  /// retired prefix accumulates. Dense per-packet mirrors of the fields
  /// the dispatch hot loops read (impact_of / JSQ scan whole per-endpoint
  /// queues) stay separate arrays so those scans sit in few cache lines.
  PacketIndex window_base_ = 0;
  std::size_t front_retired_ = 0;  ///< length of the window's retired prefix
  std::vector<PacketState> state_;
  std::vector<std::int64_t> remaining_;  ///< untransmitted chunks
  std::vector<Weight> chunk_weight_;
  std::vector<NodeIndex> assigned_transmitter_;  ///< -1 on the fixed route
  std::vector<PacketOutcome> outcomes_;
  std::size_t in_flight_ = 0;
  std::size_t peak_resident_ = 0;
  std::uint64_t dispatched_count_ = 0;
  std::uint64_t retired_count_ = 0;
  std::uint64_t dropped_count_ = 0;
  std::uint64_t requeued_count_ = 0;

  /// Stage-mutation state. dead_edges_ == 0 is the steady-state fast path:
  /// edge_alive() and viable_edges_into() reduce to one compare, so runs
  /// without mutations pay nothing. step_open_ guards the step-boundary
  /// contract of apply_mutation.
  std::vector<char> edge_alive_;
  std::size_t dead_edges_ = 0;
  bool step_open_ = false;
  /// Mutation-path scratch (cold): packets affected by a kill, and the
  /// route-check buffer behind has_viable_route.
  std::vector<PacketIndex> mutation_scratch_;
  mutable std::vector<EdgeIndex> route_scratch_;

  /// The one record of pending reconfigurable-route packets (a priority
  /// heap and a FIFO list per edge; see sim/pending_store.hpp).
  PendingStore store_;

  /// The edge-head list handed to select(), priority-sorted. A store
  /// change that moves an edge's heads stamps the edge dirty, and the next
  /// refresh_heads() re-lists it and re-reads every entry's `remaining`.
  std::vector<Candidate> heads_;
  std::vector<Candidate> spare_heads_;     ///< refresh scratch: the next list
  std::vector<Candidate> fresh_heads_;     ///< refresh scratch: new entries
  std::vector<std::uint64_t> edge_dirty_;  ///< per edge; dirty iff == dirty_serial_
  std::vector<EdgeIndex> dirty_edges_;
  std::uint64_t dirty_serial_ = 1;

  /// pending_by_priority(): live once first requested (or when recording a
  /// trace); arrivals stage until the next merge.
  mutable bool by_priority_live_ = false;
  mutable std::vector<Candidate> by_priority_;
  mutable std::vector<Candidate> by_priority_staged_;

  /// Round-stamped scratch for selection validation (replaces per-round
  /// allocations sized by the topology).
  std::uint64_t round_serial_ = 0;
  std::vector<std::uint64_t> edge_used_round_;
  std::vector<std::uint64_t> load_t_round_, load_r_round_;
  std::vector<int> load_t_, load_r_;
  std::vector<PacketIndex> owner_t_, owner_r_;  ///< valid iff round matches

  std::vector<EdgeMeta> edge_meta_;  ///< per-edge constants (see edge_meta())

  /// Reusable round-loop scratch: the Selection handed to the scheduler
  /// and the packets that finished this round. Both grow-once.
  Selection selection_;
  std::vector<Candidate> finished_scratch_;

  /// Incremental per-endpoint impact index; fed at dispatch, per-chunk
  /// service, and unlisting. Mutable: weight structures build lazily
  /// behind the const impact_split() view.
  mutable ImpactIndex impact_index_;

  /// Active-endpoint compression cache (see active_endpoints()); mutable
  /// because policies pull it lazily through the const engine view.
  mutable ActiveEndpoints active_;
  mutable std::uint64_t active_serial_ = 0;  ///< select_serial_ it was built at
  std::uint64_t select_serial_ = 0;          ///< bumped before every select()

  RunResult result_;
};

/// Convenience wrapper: build an engine, run, return the result.
RunResult simulate(const Instance& instance, DispatchPolicy& dispatcher,
                   SchedulePolicy& scheduler, EngineOptions options = {});

/// The default starvation guard for a finite packet sequence: generous
/// (demand-oblivious baselines like rotor can take a full matching cycle
/// per chunk, far beyond the paper's reasonable-schedule horizon), so it
/// only catches outright starvation. Used by the batch Engine constructor
/// when EngineOptions::max_steps == 0 and by StreamRunner trace replays.
Time default_max_steps(const Instance& instance, Delay reconfig_delay);

}  // namespace rdcn
