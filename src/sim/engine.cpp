#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rdcn {

namespace {

/// chunk_higher_priority as a function object, so sorts and searches
/// inline the comparison instead of calling through a function pointer.
constexpr auto kByPriority = [](const Candidate& a, const Candidate& b) {
  return chunk_higher_priority(a, b);
};

/// Sorts `added` by chunk priority and merges it into the priority-sorted
/// `list` in place, back to front: each added entry finds its slot by
/// binary search and the entries behind it move as one block, so entries
/// ahead of the first insertion point never move. Clears `added`.
// rdcn-lint: hot
void merge_into(std::vector<Candidate>& list, std::vector<Candidate>& added) {
  std::sort(added.begin(), added.end(), kByPriority);
  auto kept = static_cast<std::ptrdiff_t>(list.size());
  list.resize(list.size() + added.size());
  const auto begin = list.begin();
  for (auto j = static_cast<std::ptrdiff_t>(added.size()); j-- > 0;) {
    const Candidate& entry = added[static_cast<std::size_t>(j)];
    const auto pos = std::lower_bound(begin, begin + kept, entry, kByPriority) - begin;
    std::move_backward(begin + pos, begin + kept, begin + kept + j + 1);
    *(begin + pos + j) = entry;
    kept = pos;
  }
  added.clear();
}

}  // namespace

Engine::Engine(const Instance& instance, DispatchPolicy& dispatcher,
               SchedulePolicy& scheduler, EngineOptions options)
    : instance_(&instance),
      topology_(&instance.topology()),
      dispatcher_(&dispatcher),
      scheduler_(&scheduler) {
  const std::string error = instance.validate();
  if (!error.empty()) throw std::invalid_argument("invalid instance: " + error);
  init(options, instance.num_packets());
  if (options_.max_steps == 0) {
    options_.max_steps = default_max_steps(instance, options_.reconfig_delay);
  }
  // Batch mode knows the full packet count up front: size every window
  // array once so dispatch never grows them incrementally.
  const std::size_t n = instance.num_packets();
  state_.reserve(n);
  remaining_.reserve(n);
  chunk_weight_.reserve(n);
  assigned_transmitter_.reserve(n);
  outcomes_.reserve(n);
  store_.reserve(n);
  impact_index_.reserve_pending(n);
  result_.outcomes.resize(n);
  sink_ = [this](RetiredPacket&& retired) {
    result_.outcomes[static_cast<std::size_t>(retired.id)] = std::move(retired.outcome);
  };
}

Engine::Engine(const Topology& topology, DispatchPolicy& dispatcher,
               SchedulePolicy& scheduler, EngineOptions options, RetireSink sink)
    : topology_(&topology),
      dispatcher_(&dispatcher),
      scheduler_(&scheduler),
      sink_(std::move(sink)) {
  const std::string error = topology.validate();
  if (!error.empty()) throw std::invalid_argument("invalid topology: " + error);
  if (!sink_) throw std::invalid_argument("streaming engine needs a retirement sink");
  if (options.record_trace) {
    throw std::invalid_argument("trace recording requires batch mode");
  }
  if (options.redispatch_queued) {
    throw std::invalid_argument("queued redispatch requires batch mode");
  }
  init(options, std::numeric_limits<std::size_t>::max());  // no bound known
}

void Engine::init(EngineOptions options, std::size_t max_pending) {
  options_ = options;
  if (options_.speedup_rounds < 1) throw std::invalid_argument("speedup_rounds must be >= 1");
  if (options_.endpoint_capacity < 1) {
    throw std::invalid_argument("endpoint_capacity must be >= 1");
  }
  if (options_.reconfig_delay < 0) throw std::invalid_argument("reconfig_delay must be >= 0");
  if (options_.reconfig_delay > 0 && options_.endpoint_capacity != 1) {
    throw std::invalid_argument("reconfig_delay requires endpoint_capacity == 1");
  }
  if (options_.record_trace &&
      (options_.speedup_rounds != 1 || options_.endpoint_capacity != 1 ||
       options_.reconfig_delay != 0 || options_.redispatch_queued)) {
    throw std::invalid_argument(
        "trace recording requires the analysis model (speedup 1, capacity 1, no "
        "reconfiguration delay, non-migratory)");
  }
  const auto num_t = static_cast<std::size_t>(topology_->num_transmitters());
  const auto num_r = static_cast<std::size_t>(topology_->num_receivers());
  store_.attach(*topology_);
  transmitter_config_.resize(num_t);
  receiver_config_.resize(num_r);
  edge_used_round_.assign(static_cast<std::size_t>(topology_->num_edges()), 0);
  load_t_round_.assign(num_t, 0);
  load_r_round_.assign(num_r, 0);
  load_t_.assign(num_t, 0);
  load_r_.assign(num_r, 0);
  owner_t_.assign(num_t, -1);
  owner_r_.assign(num_r, -1);
  active_.transmitter_rank_.assign(num_t, -1);
  active_.receiver_rank_.assign(num_r, -1);
  impact_index_.attach(*topology_);
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  edge_alive_.assign(num_edges, 1);
  // The edge-head list holds at most two entries per edge that carries a
  // pending packet; sizing its buffers here keeps every refresh off the heap.
  const std::size_t busy_edges = std::min(num_edges, max_pending);
  edge_dirty_.assign(num_edges, 0);
  dirty_edges_.reserve(busy_edges);
  heads_.reserve(2 * busy_edges);
  spare_heads_.reserve(2 * busy_edges);
  fresh_heads_.reserve(2 * busy_edges);
  edge_meta_.resize(num_edges);
  for (std::size_t i = 0; i < num_edges; ++i) {
    const ReconfigEdge& edge = topology_->edge(static_cast<EdgeIndex>(i));
    EdgeMeta& meta = edge_meta_[i];
    const auto du =
        static_cast<double>(topology_->transmitter_attach_delay(edge.transmitter));
    const auto dv = static_cast<double>(topology_->receiver_attach_delay(edge.receiver));
    const auto d = static_cast<double>(edge.delay);
    meta.base_coeff = du + (d + 1.0) / 2.0 + dv;
    meta.delay = d;
    meta.attach_tail = topology_->transmitter_attach_delay(edge.transmitter) +
                       topology_->receiver_attach_delay(edge.receiver);
    meta.transmitter = edge.transmitter;
    meta.receiver = edge.receiver;
  }
  // A selection is a (b-)matching, so its size is bounded a priori; sizing
  // the round-loop scratch here keeps even the first rounds off the heap.
  const std::size_t matching_bound =
      std::min(num_t, num_r) * static_cast<std::size_t>(options_.endpoint_capacity);
  selection_.mutable_packets().reserve(matching_bound);
  finished_scratch_.reserve(matching_bound);
  // A trace records every pending packet per step, in priority order.
  by_priority_live_ = options_.record_trace;
  if (options_.audit) auditor_ = make_invariant_auditor();
  if (options_.probe.enabled) {
    probe_store_ = std::make_unique<Probe>(options_.probe);
    probe_ = probe_store_.get();
  }
}

// rdcn-lint: hot
void Engine::append_slot(const Packet& packet) {
  if (packet.id != window_base_ + static_cast<PacketIndex>(state_.size())) {
    throw std::logic_error("packets must be dispatched in sequence-id order");
  }
  PacketState ps;
  ps.arrival = packet.arrival;
  ps.weight = packet.weight;
  ps.source = packet.source;
  ps.destination = packet.destination;
  state_.push_back(ps);
  remaining_.push_back(0);
  chunk_weight_.push_back(0.0);
  assigned_transmitter_.push_back(-1);
  outcomes_.emplace_back();
  store_.append_slot();
  peak_resident_ = std::max(peak_resident_, state_.size());
  ++in_flight_;
  ++dispatched_count_;
  if (probe_) probe_->count(Counter::PacketsDispatched);
}

// rdcn-lint: hot
void Engine::retire_packet(PacketIndex packet) {
  const std::size_t s = slot(packet);
  if (auditor_) auditor_->on_retire(*this, packet, outcomes_[s]);
  ++retired_count_;
  if (probe_) probe_->count(Counter::PacketsRetired);
  deliver(packet);
}

// rdcn-lint: hot
void Engine::deliver(PacketIndex packet) {
  const std::size_t s = slot(packet);
  state_[s].retired = true;
  --in_flight_;
  sink_(RetiredPacket{packet, state_[s].arrival, state_[s].weight,
                      std::move(outcomes_[s])});
  compact_window();
}

// rdcn-lint: hot
void Engine::compact_window() {
  while (front_retired_ < state_.size() && state_[front_retired_].retired) {
    ++front_retired_;
  }
  // Amortized O(1) per packet: the prefix erase costs O(window) and only
  // fires once the retired prefix covers half the (>= 128 slot) window.
  if (front_retired_ < 64 || front_retired_ * 2 < state_.size()) return;
  const auto n = static_cast<std::ptrdiff_t>(front_retired_);
  state_.erase(state_.begin(), state_.begin() + n);
  remaining_.erase(remaining_.begin(), remaining_.begin() + n);
  chunk_weight_.erase(chunk_weight_.begin(), chunk_weight_.begin() + n);
  assigned_transmitter_.erase(assigned_transmitter_.begin(),
                              assigned_transmitter_.begin() + n);
  outcomes_.erase(outcomes_.begin(), outcomes_.begin() + n);
  store_.erase_prefix(front_retired_);
  window_base_ += static_cast<PacketIndex>(front_retired_);
  front_retired_ = 0;
}

// rdcn-lint: hot
void Engine::apply_route(const Packet& packet, const RouteDecision& route) {
  if (auditor_) auditor_->on_dispatch(*this, packet, route);
  const std::size_t s = slot(packet.id);
  auto& ps = state_[s];
  auto& outcome = outcomes_[s];
  ps.route = route;
  ps.dispatched = true;
  outcome.route = route;

  if (route.use_fixed) {
    assigned_transmitter_[s] = -1;  // may migrate here under redispatch_queued
    const auto delay = topology_->fixed_link_delay(packet.source, packet.destination);
    if (!delay) throw std::logic_error("dispatcher chose a non-existent fixed link");
    // Fixed links are uncapacitated: transmission starts at the decision
    // time (== arrival for the normal dispatch path; later when a queued
    // packet migrates to the fixed layer).
    const Time start = std::max(now_, packet.arrival);
    outcome.completion = start + *delay;
    outcome.weighted_latency =
        packet.weight * static_cast<double>(outcome.completion - packet.arrival);
    result_.fixed_cost += outcome.weighted_latency;
    result_.total_cost += outcome.weighted_latency;
    result_.makespan = std::max(result_.makespan, outcome.completion);
    retire_packet(packet.id);
  } else {
    if (route.edge < 0 || route.edge >= topology_->num_edges()) {
      throw std::logic_error("dispatcher chose an invalid edge");
    }
    if (!edge_alive(route.edge)) {
      throw std::logic_error("dispatcher chose an edge killed by a stage mutation");
    }
    const ReconfigEdge& edge = topology_->edge(route.edge);
    if (topology_->source_of(edge.transmitter) != packet.source ||
        topology_->destination_of(edge.receiver) != packet.destination) {
      throw std::logic_error("dispatcher chose an edge outside E_p");
    }
    auto& remaining = remaining_[s];
    auto& chunk_weight = chunk_weight_[s];
    remaining = edge.delay;
    chunk_weight = packet.weight / static_cast<double>(edge.delay);
    assigned_transmitter_[s] = edge.transmitter;

    list_pending(packet.id, route.edge);
    impact_index_.add_chunks(edge.transmitter, edge.receiver, route.edge, chunk_weight,
                             remaining);
    outcome.chunk_transmit_steps.reserve(static_cast<std::size_t>(edge.delay));
  }
}

// rdcn-lint: hot
Candidate Engine::candidate_of(PacketIndex packet) const {
  const std::size_t s = slot(packet);
  const EdgeIndex e = state_[s].route.edge;
  const EdgeMeta& meta = edge_meta_[static_cast<std::size_t>(e)];
  Candidate c;
  c.packet = packet;
  c.edge = e;
  c.transmitter = meta.transmitter;
  c.receiver = meta.receiver;
  c.chunk_weight = chunk_weight_[s];
  c.arrival = state_[s].arrival;
  c.remaining = remaining_[s];
  return c;
}

// rdcn-lint: hot
bool Engine::higher_priority(PacketIndex a, PacketIndex b) const {
  const Weight wa = chunk_weight_[slot(a)];
  const Weight wb = chunk_weight_[slot(b)];
  if (wa != wb) return wa > wb;
  const Time aa = state_[slot(a)].arrival;
  const Time ab = state_[slot(b)].arrival;
  if (aa != ab) return aa < ab;
  return a < b;
}

// rdcn-lint: hot
bool Engine::is_pending(PacketIndex packet) const {
  return packet >= window_base_ &&
         packet < window_base_ + static_cast<PacketIndex>(state_.size()) &&
         store_.contains(packet);
}

// rdcn-lint: hot
void Engine::mark_dirty(EdgeIndex e) {
  auto& stamp = edge_dirty_[static_cast<std::size_t>(e)];
  if (stamp == dirty_serial_) return;
  stamp = dirty_serial_;
  dirty_edges_.push_back(e);  // rdcn-lint: allow(hot-alloc) -- reserved in init (one entry per edge)
}

// rdcn-lint: hot
void Engine::list_pending(PacketIndex packet, EdgeIndex e) {
  // No span here: a per-packet span would cost more than the O(log n)
  // listing it times, so listing counts toward the enclosing Dispatch.
  const std::size_t s = slot(packet);
  if (store_.insert(packet, e, chunk_weight_[s], state_[s].arrival)) mark_dirty(e);
  if (by_priority_live_) {
    by_priority_staged_.push_back(candidate_of(packet));  // rdcn-lint: allow(hot-alloc) -- settles at high-water capacity (see merge)
  }
}

// rdcn-lint: hot
void Engine::refresh_heads() {
  // Every listed head re-reads its `remaining`: one load per entry is
  // cheaper than finding the entries of the heads served last round.
  const std::int64_t* const left = remaining_.data();
  const PacketIndex base = window_base_;
  if (dirty_edges_.empty()) {
    for (Candidate& c : heads_) c.remaining = left[c.packet - base];
    return;
  }
  Probe::Span span(probe_, Phase::MergeCompact);
  fresh_heads_.clear();
  for (const EdgeIndex e : dirty_edges_) store_.append_heads(e, fresh_heads_);
  for (Candidate& c : fresh_heads_) c.remaining = left[c.packet - base];
  std::sort(fresh_heads_.begin(), fresh_heads_.end(), kByPriority);
  if (probe_) probe_->count(Counter::CandidatesMerged, fresh_heads_.size());
  // One pass into the spare buffer drops the entries of edges whose heads
  // changed and merges in their current heads: O(edges) per round, however
  // deep the queues are. The result holds at most two entries per busy
  // edge, which init reserved; the spare buffer still holds the list
  // before last, so resizing it constructs only the difference.
  spare_heads_.resize(std::min(heads_.size() + fresh_heads_.size(),  // rdcn-lint: allow(hot-alloc) -- within the capacity reserved in init
                               spare_heads_.capacity()));
  // Locals, not members: the stores through `out` could alias them.
  const std::uint64_t* const dirty = edge_dirty_.data();
  const std::uint64_t serial = dirty_serial_;
  Candidate* out = spare_heads_.data();
  auto fresh = fresh_heads_.cbegin();
  const auto fresh_end = fresh_heads_.cend();
  for (const Candidate& c : heads_) {
    if (dirty[static_cast<std::size_t>(c.edge)] == serial) continue;
    for (; fresh != fresh_end && chunk_higher_priority(*fresh, c); ++fresh) *out++ = *fresh;
    *out = c;
    (out++)->remaining = left[c.packet - base];
  }
  out = std::copy(fresh, fresh_end, out);
  spare_heads_.resize(static_cast<std::size_t>(out - spare_heads_.data()));
  heads_.swap(spare_heads_);
  dirty_edges_.clear();
  ++dirty_serial_;
}

// rdcn-lint: hot
const std::vector<Candidate>& Engine::pending_by_priority() const {
  if (!by_priority_live_) {
    by_priority_.clear();
    by_priority_.reserve(store_.size());
    store_.for_each([this](PacketIndex p) { by_priority_.push_back(candidate_of(p)); });
    std::sort(by_priority_.begin(), by_priority_.end(), kByPriority);
    by_priority_staged_.clear();
    by_priority_live_ = true;
  }
  merge_by_priority();
  return by_priority_;
}

// rdcn-lint: hot
void Engine::merge_by_priority() const {
  if (by_priority_staged_.empty()) return;
  Probe::Span span(probe_, Phase::MergeCompact);
  merge_into(by_priority_, by_priority_staged_);
}

// rdcn-lint: hot
Candidate& Engine::listed_entry(std::vector<Candidate>& list, PacketIndex packet) const {
  // The priority key is immutable, so the entry is found by binary search.
  const Candidate key = candidate_of(packet);
  const auto it = std::lower_bound(list.begin(), list.end(), key, kByPriority);
  if (it == list.end() || it->packet != packet) {
    throw std::logic_error("engine: packet is missing from a priority-sorted list");
  }
  return *it;
}

void Engine::rebuild_impact_weights(ImpactIndex& index) const {
  index.begin_rebuild();
  store_.for_each([this, &index](PacketIndex p) {
    const std::size_t s = slot(p);
    const EdgeIndex e = state_[s].route.edge;
    const EdgeMeta& meta = edge_meta_[static_cast<std::size_t>(e)];
    index.rebuild_add(meta.transmitter, meta.receiver, e, chunk_weight_[s],
                      remaining_[s]);
  });
}

// rdcn-lint: hot
ImpactSplit Engine::impact_split_slow(EdgeIndex e, double threshold) const {
  // Timed at query granularity (rebuild + deferred-event flush + lookup):
  // per-update spans inside add_chunks would cost more than the O(1)
  // counter work they measure. Nests under Dispatch (or Select).
  Probe::Span span(probe_, Phase::IndexMaintenance);
  if (probe_) probe_->count(Counter::ImpactQueries);
  if (!impact_index_.weight_ready()) rebuild_impact_weights(impact_index_);
  return impact_index_.edge_split(e, threshold);
}

// rdcn-lint: hot
const ActiveEndpoints& Engine::active_endpoints(
    const std::vector<Candidate>& candidates) const {
  // Round-stamped cache for the engine's own pending list; a foreign list
  // (benches driving select() directly) rebuilds every call. Rank entries
  // of endpoints absent from `candidates` are left stale on purpose --
  // consumers may only look up endpoints of the candidates themselves.
  const bool own = &candidates == &heads_;
  if (own && active_serial_ == select_serial_ && select_serial_ != 0) return active_;
  active_.transmitters.clear();
  active_.receivers.clear();
  for (const Candidate& c : candidates) {
    const auto t = static_cast<std::size_t>(c.transmitter);
    const auto r = static_cast<std::size_t>(c.receiver);
    // First-appearance check via the rank array: a stale rank either lies
    // outside the current active list or points at a different endpoint.
    const std::int32_t t_rank = active_.transmitter_rank_[t];
    if (t_rank < 0 || static_cast<std::size_t>(t_rank) >= active_.transmitters.size() ||
        active_.transmitters[static_cast<std::size_t>(t_rank)] != c.transmitter) {
      active_.transmitter_rank_[t] = static_cast<std::int32_t>(active_.transmitters.size());
      active_.transmitters.push_back(c.transmitter);  // rdcn-lint: allow(hot-alloc) -- grows to high-water endpoint count
    }
    const std::int32_t r_rank = active_.receiver_rank_[r];
    if (r_rank < 0 || static_cast<std::size_t>(r_rank) >= active_.receivers.size() ||
        active_.receivers[static_cast<std::size_t>(r_rank)] != c.receiver) {
      active_.receiver_rank_[r] = static_cast<std::int32_t>(active_.receivers.size());
      active_.receivers.push_back(c.receiver);  // rdcn-lint: allow(hot-alloc) -- grows to high-water endpoint count
    }
  }
  active_serial_ = own ? select_serial_ : 0;
  return active_;
}

// rdcn-lint: hot
void Engine::dispatch_arrivals() {
  const auto& packets = instance_->packets();
  if (next_arrival_ >= packets.size() || packets[next_arrival_].arrival != now_) return;
  Probe::Span span(probe_, Phase::Dispatch);
  while (next_arrival_ < packets.size() && packets[next_arrival_].arrival == now_) {
    admit(packets[next_arrival_]);
    ++next_arrival_;
  }
}

// rdcn-lint: hot
void Engine::inject(const Packet& packet) {
  if (packet.arrival != now_) {
    throw std::logic_error("inject: packet.arrival must equal the current step");
  }
  Probe::Span span(probe_, Phase::Dispatch);
  admit(packet);
}

// rdcn-lint: hot
void Engine::admit(const Packet& packet) {
  append_slot(packet);
  if (dead_edges_ != 0 && !has_viable_route(packet.source, packet.destination)) {
    drop_packet(packet.id);  // pair severed by failures; nothing to route over
  } else {
    apply_route(packet, dispatcher_->dispatch(*this, packet));
  }
}

// rdcn-lint: hot
void Engine::unlist_pending(PacketIndex packet) {
  const std::size_t s = slot(packet);
  const EdgeIndex e = state_[s].route.edge;
  {
    Probe::Span span(probe_, Phase::MergeCompact);
    if (store_.erase(packet)) mark_dirty(e);
    if (by_priority_live_) {
      merge_by_priority();
      const Candidate& entry = listed_entry(by_priority_, packet);
      by_priority_.erase(by_priority_.begin() + (&entry - by_priority_.data()));
    }
  }
  const EdgeMeta& meta = edge_meta_[static_cast<std::size_t>(e)];
  impact_index_.add_chunks(meta.transmitter, meta.receiver, e, chunk_weight_[s],
                           -remaining_[s]);
}

void Engine::drop_packet(PacketIndex packet) {
  const std::size_t s = slot(packet);
  outcomes_[s].dropped = true;
  if (auditor_) auditor_->on_drop(*this, packet, outcomes_[s]);
  ++dropped_count_;
  if (probe_) probe_->count(Counter::PacketsDropped);
  deliver(packet);
}

// rdcn-lint: hot
void Engine::viable_edges_into(NodeIndex source, NodeIndex destination,
                               std::vector<EdgeIndex>& out) const {
  topology_->candidate_edges_into(source, destination, out);
  if (dead_edges_ == 0) return;  // steady state: pure pass-through
  std::size_t write = 0;
  for (EdgeIndex e : out) {
    if (edge_alive_[static_cast<std::size_t>(e)]) out[write++] = e;
  }
  out.resize(write);
}

bool Engine::has_viable_route(NodeIndex source, NodeIndex destination) const {
  if (topology_->fixed_link_delay(source, destination)) return true;
  topology_->candidate_edges_into(source, destination, route_scratch_);
  if (dead_edges_ == 0) return !route_scratch_.empty();
  for (EdgeIndex e : route_scratch_) {
    if (edge_alive_[static_cast<std::size_t>(e)]) return true;
  }
  return false;
}

MutationStats Engine::apply_mutation(const StageMutation& mutation) {
  if (step_open_) {
    throw std::logic_error("apply_mutation: only valid at a step boundary");
  }
  if (options_.record_trace || options_.redispatch_queued) {
    throw std::invalid_argument(
        "stage mutations are incompatible with record_trace / redispatch_queued");
  }
  MutationStats stats;

  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  const auto valid_rack = [&](NodeIndex r) {
    return r >= 0 && (r < topology_->num_sources() || r < topology_->num_destinations());
  };
  const auto rack_touches = [&](const ReconfigEdge& edge, NodeIndex r) {
    return topology_->source_of(edge.transmitter) == r ||
           topology_->destination_of(edge.receiver) == r;
  };
  const auto set_alive = [&](std::size_t e, bool alive) {
    if ((edge_alive_[e] != 0) == alive) return;
    edge_alive_[e] = alive ? 1 : 0;
    if (alive) {
      --dead_edges_;
      ++stats.edges_restored;
    } else {
      ++dead_edges_;
      ++stats.edges_killed;
    }
  };
  const auto apply_set = [&](const std::vector<EdgeIndex>& edges,
                             const std::vector<NodeIndex>& racks, bool alive,
                             const std::string& verb) {
    for (EdgeIndex e : edges) {
      if (e < 0 || e >= topology_->num_edges()) {
        throw std::invalid_argument("apply_mutation: " + verb +
                                    "_edges index out of range");
      }
      set_alive(static_cast<std::size_t>(e), alive);
    }
    for (NodeIndex r : racks) {
      if (!valid_rack(r)) {
        throw std::invalid_argument("apply_mutation: " + verb +
                                    "_racks index out of range");
      }
      for (std::size_t i = 0; i < num_edges; ++i) {
        const auto e = static_cast<EdgeIndex>(i);
        if (rack_touches(topology_->edge(e), r)) set_alive(i, alive);
      }
    }
  };
  // Restores before kills: an edge named by both stays dead.
  apply_set(mutation.restore_edges, mutation.restore_racks, true, "restore");
  apply_set(mutation.kill_edges, mutation.kill_racks, false, "kill");

  // In-flight packets stranded on freshly-killed edges, in (arrival, id)
  // order so requeue re-dispatch is deterministic and arrival-fair.
  // Edges dead before this call carry no pending packets, so scanning for
  // any dead edge finds exactly the newly stranded set.
  if (stats.edges_killed != 0) {
    mutation_scratch_.clear();
    store_.for_each([this](PacketIndex p) {
      if (!edge_alive_[static_cast<std::size_t>(store_.edge_of(p))]) {
        mutation_scratch_.push_back(p);
      }
    });
    sort_by_arrival(mutation_scratch_);
    for (PacketIndex p : mutation_scratch_) {
      const std::size_t s = slot(p);
      const bool untouched =
          remaining_[s] == topology_->edge(state_[s].route.edge).delay;
      unlist_pending(p);
      if (mutation.dead_policy == DeadPolicy::Requeue && untouched &&
          has_viable_route(state_[s].source, state_[s].destination)) {
        if (auditor_) auditor_->on_requeue(*this, p);
        ++requeued_count_;
        ++stats.packets_requeued;
        if (probe_) probe_->count(Counter::PacketsRequeued);
        redispatch(p);
      } else {
        drop_packet(p);
        ++stats.packets_dropped;
      }
    }
  }

  if (mutation.speedup_rounds != 0) {
    if (mutation.speedup_rounds < 1) {
      throw std::invalid_argument("apply_mutation: speedup_rounds must be >= 1");
    }
    options_.speedup_rounds = mutation.speedup_rounds;
  }
  if (mutation.endpoint_capacity != 0) {
    if (mutation.endpoint_capacity < 1) {
      throw std::invalid_argument("apply_mutation: endpoint_capacity must be >= 1");
    }
    if (options_.reconfig_delay > 0 && mutation.endpoint_capacity != 1) {
      throw std::invalid_argument(
          "apply_mutation: reconfig_delay requires endpoint_capacity == 1");
    }
    options_.endpoint_capacity = mutation.endpoint_capacity;
    // The matching bound may have grown; keep the round loop off the heap.
    const auto num_t = static_cast<std::size_t>(topology_->num_transmitters());
    const auto num_r = static_cast<std::size_t>(topology_->num_receivers());
    const std::size_t matching_bound =
        std::min(num_t, num_r) * static_cast<std::size_t>(options_.endpoint_capacity);
    selection_.mutable_packets().reserve(matching_bound);
    finished_scratch_.reserve(matching_bound);
  }

  crosscheck_impact_index();
  if (probe_) probe_->count(Counter::StageMutations);
  return stats;
}

void Engine::crosscheck_impact_index() {
  // Rebuild the index from the pending store alone and require bitwise
  // agreement: integer loads always, treap splits when the live index has
  // its weight structures up (canonical hash-priority shape makes the
  // incremental and rebuilt treaps structurally identical). Mutations are
  // cold, so the O(n log n) rebuild is free at steady state.
  ImpactIndex fresh;
  fresh.attach(*topology_);
  store_.for_each([this, &fresh](PacketIndex p) {
    const Candidate c = candidate_of(p);
    fresh.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, c.remaining);
  });
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  for (std::size_t i = 0; i < num_edges; ++i) {
    const auto e = static_cast<EdgeIndex>(i);
    if (impact_index_.edge_load(e) != fresh.edge_load(e)) {
      throw std::logic_error(
          "apply_mutation: impact index edge load diverged from rebuild");
    }
  }
  if (impact_index_.weight_ready()) {
    rebuild_impact_weights(fresh);
    store_.for_each([this, &fresh](PacketIndex p) {
      const EdgeIndex e = store_.edge_of(p);
      const double w = chunk_weight_[slot(p)];
      const ImpactSplit live = impact_index_.edge_split(e, w);
      const ImpactSplit ref = fresh.edge_split(e, w);
      if (live.heavier != ref.heavier || live.lighter_weight != ref.lighter_weight) {
        throw std::logic_error(
            "apply_mutation: impact index weight split diverged from rebuild");
      }
    });
  }
}

void Engine::redispatch_queued_packets() {
  // Packets with every chunk still untransmitted may change route; they
  // are re-offered to the dispatcher in arrival order, each temporarily
  // removed so it does not see itself as queue pressure.
  std::vector<PacketIndex> queued;
  store_.for_each([this, &queued](PacketIndex p) {
    if (remaining_[slot(p)] == topology_->edge(store_.edge_of(p)).delay) {
      queued.push_back(p);
    }
  });
  sort_by_arrival(queued);
  for (PacketIndex p : queued) {
    unlist_pending(p);
    redispatch(p);
  }
}

void Engine::sort_by_arrival(std::vector<PacketIndex>& packets) const {
  std::sort(packets.begin(), packets.end(), [this](PacketIndex a, PacketIndex b) {
    const Time aa = state_[slot(a)].arrival;
    const Time ab = state_[slot(b)].arrival;
    return aa != ab ? aa < ab : a < b;
  });
}

void Engine::redispatch(PacketIndex packet) {
  const PacketState& ps = state_[slot(packet)];
  const Packet original{packet, ps.arrival, ps.weight, ps.source, ps.destination};
  remaining_[slot(packet)] = 0;
  apply_route(original, dispatcher_->dispatch(*this, original));
}

// rdcn-lint: hot
std::size_t Engine::schedule_round(bool record) {
  refresh_heads();
  if (store_.empty()) {
    if (record) result_.trace.push_back(StepRecord{now_, {}, 0});  // rdcn-lint: allow(hot-alloc) -- record mode only
    return 0;
  }
  if (by_priority_live_) merge_by_priority();

  if (probe_) {
    probe_->count(Counter::Rounds);
    probe_->gauge(Gauge::PendingCandidates, store_.size());
    probe_->gauge(Gauge::InFlight, in_flight_);
    probe_->gauge(Gauge::WeightKeys, impact_index_.live_weight_keys());
    probe_->set(Counter::IndexRebuilds, impact_index_.rebuilds());
  }

  ++select_serial_;  // invalidates the active-endpoint map of the last round
  selection_.clear();
  {
    Probe::Span span(probe_, Phase::Select);
    scheduler_->select(*this, now_, heads_, selection_);
  }
  const std::vector<PacketIndex>& selected = selection_.packets();
  if (probe_ && active_serial_ == select_serial_) {
    // The policy built the active-endpoint map this round; sample it.
    probe_->gauge(Gauge::ActiveTransmitters, active_.transmitters.size());
    probe_->gauge(Gauge::ActiveReceivers, active_.receivers.size());
  }

  // The auditor validates first (independently), so a contract violation
  // under audit surfaces as AuditFailure, not as the engine's logic_error.
  if (auditor_) auditor_->on_selection(*this, heads_, selected);

  // Validate the selection is a (b-)matching of pending packets: per-
  // endpoint load within capacity, each edge used at most once (which also
  // rejects a packet named twice). Scratch arrays are stamped with the
  // round serial so nothing is re-zeroed per round. owner_* tracks the
  // single occupant for the trace path (capacity 1 there by construction).
  ++round_serial_;
  const std::uint64_t round = round_serial_;
  {
    Probe::Span validate_span(probe_, Phase::Validate);
    for (const PacketIndex p : selected) {
      if (!is_pending(p)) {
        throw std::logic_error("scheduler selected a packet that is not pending");
      }
      const auto e = static_cast<std::size_t>(state_[slot(p)].route.edge);
      const auto t = static_cast<std::size_t>(edge_meta_[e].transmitter);
      const auto r = static_cast<std::size_t>(edge_meta_[e].receiver);
      if (edge_used_round_[e] == round) {
        throw std::logic_error("scheduler selected one edge twice");
      }
      edge_used_round_[e] = round;
      if (load_t_round_[t] != round) {
        load_t_round_[t] = round;
        load_t_[t] = 0;
      }
      if (load_r_round_[r] != round) {
        load_r_round_[r] = round;
        load_r_[r] = 0;
      }
      if (++load_t_[t] > options_.endpoint_capacity ||
          ++load_r_[r] > options_.endpoint_capacity) {
        throw std::logic_error("scheduler selection exceeds endpoint capacity");
      }
      if (record) {
        owner_t_[t] = p;
        owner_r_[r] = p;
      }
    }

    // Reconfiguration-delay extension: an endpoint only carries a chunk
    // when it is already tuned to that edge; otherwise this selection
    // starts (or retargets) its retuning and the chunk stays queued.
    if (options_.reconfig_delay > 0) {
      // Filter the selection in place: endpoints not yet tuned to their
      // edge keep their chunk queued and drop out of this round's
      // transmit set.
      std::vector<PacketIndex>& packets = selection_.mutable_packets();
      std::size_t write = 0;
      for (const PacketIndex p : packets) {
        const EdgeIndex e = state_[slot(p)].route.edge;
        const EdgeMeta& meta = edge_meta_[static_cast<std::size_t>(e)];
        auto& tc = transmitter_config_[static_cast<std::size_t>(meta.transmitter)];
        auto& rc = receiver_config_[static_cast<std::size_t>(meta.receiver)];
        bool ready = true;
        if (tc.target != e) {
          tc.target = e;
          tc.ready = now_ + options_.reconfig_delay;
          ready = false;
        } else if (now_ < tc.ready) {
          ready = false;
        }
        if (rc.target != e) {
          rc.target = e;
          rc.ready = now_ + options_.reconfig_delay;
          ready = false;
        } else if (now_ < rc.ready) {
          ready = false;
        }
        if (ready) packets[write++] = p;
      }
      packets.resize(write);
    }
  }

  if (probe_) probe_->gauge(Gauge::SelectedPerRound, selected.size());

  if (auditor_) auditor_->on_round(*this, selected);

  // Transmit the selected chunks and account their latency. Finished
  // packets leave the store below; the next refresh_heads() re-reads every
  // listed head's `remaining`.
  std::vector<Candidate>& finished = finished_scratch_;
  finished.clear();
  Probe::Span service_span(probe_, Phase::Service);
  if (probe_) probe_->count(Counter::ChunksTransmitted, selected.size());
  for (const PacketIndex p : selected) {
    const std::size_t s = slot(p);
    const EdgeIndex e = state_[s].route.edge;
    const EdgeMeta& meta = edge_meta_[static_cast<std::size_t>(e)];
    auto& remaining = remaining_[s];
    auto& outcome = outcomes_[s];
    const Weight chunk_weight = chunk_weight_[s];
    const Time completion = now_ + 1 + meta.attach_tail;
    outcome.chunk_transmit_steps.push_back(now_);
    const Time arrival = state_[s].arrival;
    const double latency = chunk_weight * static_cast<double>(completion - arrival);
    outcome.weighted_latency += latency;
    result_.reconfig_cost += latency;
    result_.total_cost += latency;
    --remaining;
    impact_index_.add_chunks(meta.transmitter, meta.receiver, e, chunk_weight, -1);
    if (remaining == 0) {
      outcome.completion = completion;
      result_.makespan = std::max(result_.makespan, completion);
      finished.push_back(  // rdcn-lint: allow(hot-alloc) -- ref to finished_scratch_, reserved in init
          Candidate{p, e, meta.transmitter, meta.receiver, chunk_weight, arrival, 0});
    }
  }

  if (record) {
    // For every pending packet, note whether it transmitted and otherwise
    // which transmitted packet blocked it (the heaviest conflicting owner;
    // the charging auditor checks the priority relation separately).
    StepRecord step;
    step.time = now_;
    step.matching_size = selected.size();
    step.packets.reserve(by_priority_.size());
    for (const Candidate& c : by_priority_) {
      const auto t = static_cast<std::size_t>(c.transmitter);
      const auto r = static_cast<std::size_t>(c.receiver);
      const PacketIndex via_t = load_t_round_[t] == round ? owner_t_[t] : -1;
      const PacketIndex via_r = load_r_round_[r] == round ? owner_r_[r] : -1;
      StepPacketRecord rec;
      rec.packet = c.packet;
      rec.transmitted = via_t == c.packet;
      if (!rec.transmitted) {
        // Prefer the blocker earlier in the chunk priority order.
        rec.blocker = via_t == -1                         ? via_r
                      : via_r == -1                       ? via_t
                      : higher_priority(via_r, via_t)     ? via_r
                                                          : via_t;
      }
      step.packets.push_back(rec);
    }
    result_.trace.push_back(std::move(step));  // rdcn-lint: allow(hot-alloc) -- record mode only
  }

  // Store maintenance is a MergeCompact child of the surrounding Service
  // span: self-time accounting keeps the two phases disjoint.
  if (by_priority_live_) {
    // One pass over the full list (still before retirement, while every
    // window slot is valid): refresh `remaining`, drop finished packets.
    Probe::Span compact_span(probe_, Phase::MergeCompact);
    const auto end = by_priority_.end();
    auto read = by_priority_.begin();
    for (; read != end && remaining_[slot(read->packet)] != 0; ++read) {
      read->remaining = remaining_[slot(read->packet)];
    }
    auto write = read;
    for (; read != end; ++read) {
      const std::int64_t left = remaining_[slot(read->packet)];
      if (left == 0) continue;
      *write = *read;
      (write++)->remaining = left;
    }
    by_priority_.erase(write, end);
  }
  // Unlist completed packets in priority order, then retire them out of the
  // per-packet window.
  if (!finished.empty()) {
    std::sort(finished.begin(), finished.end(), kByPriority);
    {
      Probe::Span compact_span(probe_, Phase::MergeCompact);
      for (const Candidate& c : finished) {
        if (store_.erase(c.packet)) mark_dirty(c.edge);
      }
    }
    for (const Candidate& c : finished) retire_packet(c.packet);
  }
  return selected.size();
}

// rdcn-lint: hot
void Engine::begin_step(const Time* next_arrival) {
  // Cooperative cancellation: null (no deadline armed) is one pointer
  // test; armed is one extra relaxed load. Thrown here, never mid-step,
  // so a cancelled run stops on the same step-edge contract as mutations.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw CancelledError("run cancelled at step boundary (deadline exceeded)");
  }
  const Time previous = now_;
  if (store_.empty() && next_arrival != nullptr && *next_arrival > now_ + 1) {
    now_ = *next_arrival;  // event-driven: jump idle gaps
  } else {
    ++now_;
  }
  ++result_.steps_simulated;
  if (options_.max_steps > 0 && result_.steps_simulated > options_.max_steps) {
    throw std::runtime_error("engine exceeded max_steps; scheduler may be starving packets");
  }
  step_open_ = true;
  if (auditor_) auditor_->on_step_begin(*this, previous);
}

// rdcn-lint: hot
void Engine::finish_step() {
  if (options_.redispatch_queued) redispatch_queued_packets();
  for (int round = 0; round < options_.speedup_rounds; ++round) {
    if (store_.empty() && round > 0) break;
    schedule_round(options_.record_trace);
  }
  if (auditor_) auditor_->on_step_end(*this);
  step_open_ = false;
}

RunResult Engine::run(const std::vector<TimedMutation>& schedule) {
  if (instance_ == nullptr) {
    throw std::logic_error("run() requires batch mode; streaming engines are step-driven");
  }
  if (!schedule.empty() && (options_.record_trace || options_.redispatch_queued)) {
    throw std::invalid_argument(
        "staged runs are incompatible with record_trace / redispatch_queued");
  }
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].at < schedule[i - 1].at) {
      throw std::invalid_argument("stage schedule must be sorted by time");
    }
  }
  const auto& packets = instance_->packets();
  now_ = 0;
  std::size_t next_stage = 0;
  while (true) {
    // A mutation at time T governs every step with now() >= T, so it is
    // applied once the next step's clock (now()+1, barring idle jumps --
    // which the clamp below caps at T-1) reaches it.
    while (next_stage < schedule.size() && schedule[next_stage].at <= now_ + 1) {
      apply_mutation(schedule[next_stage].mutation);
      ++next_stage;
    }
    if (next_arrival_ >= packets.size() && !busy()) break;
    const Time* upcoming =
        next_arrival_ < packets.size() ? &packets[next_arrival_].arrival : nullptr;
    Time stage_bound = 0;
    if (next_stage < schedule.size()) {
      // Clamp the idle jump to the step before the stage edge: the loop
      // head then applies the mutation and step T runs post-mutation.
      stage_bound = schedule[next_stage].at - 1;
      if (upcoming == nullptr || stage_bound < *upcoming) upcoming = &stage_bound;
    }
    begin_step(upcoming);
    dispatch_arrivals();
    finish_step();
  }
  if (probe_) result_.probe = probe_->report();
  return std::move(result_);
}

RunResult simulate(const Instance& instance, DispatchPolicy& dispatcher,
                   SchedulePolicy& scheduler, EngineOptions options) {
  Engine engine(instance, dispatcher, scheduler, options);
  return engine.run();
}

Time default_max_steps(const Instance& instance, Delay reconfig_delay) {
  return instance.horizon_bound() * 64 * (reconfig_delay + 1) + 64;
}

}  // namespace rdcn
