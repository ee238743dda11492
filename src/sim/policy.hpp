#pragma once

// Policy interfaces for the time-stepped engine. Every scheduler in this
// repo -- the paper's ALG and all baselines -- is a (DispatchPolicy,
// SchedulePolicy) pair:
//
//  * the dispatcher runs once per packet, at its (integral) arrival, and
//    irrevocably commits the packet to either the fixed direct link or to
//    one transmitter-receiver edge (the paper's non-migratory routing);
//  * the schedule policy runs once per transmission step and picks which
//    pending chunks cross the reconfigurable layer; the engine enforces
//    that the picked edges form a matching.

#include <cstdint>
#include <vector>

#include "net/instance.hpp"

namespace rdcn {

class Engine;

/// Routing commitment for one packet.
struct RouteDecision {
  bool use_fixed = false;
  EdgeIndex edge = kInvalidEdge;  ///< valid iff !use_fixed
  /// The dispatcher's a-priori bound on the packet's charge (the paper's
  /// alpha_p = Delta_p(e_p) or w_p*dl(p)); baselines may leave it 0.
  double alpha = 0.0;
};

/// One pending packet's head-of-line chunk at the current step.
struct Candidate {
  PacketIndex packet = 0;
  EdgeIndex edge = kInvalidEdge;
  NodeIndex transmitter = 0;
  NodeIndex receiver = 0;
  Weight chunk_weight = 0.0;  ///< w_p / d(e_p)
  Time arrival = 0;           ///< a_p
  std::int64_t remaining = 0; ///< untransmitted chunks of the packet
};

/// The single total order on chunks used everywhere in the paper:
/// decreasing chunk weight, then increasing packet arrival, then input
/// sequence position. Section III-B's requirement that "from two chunks of
/// the same weight, the chunk of the earlier arriving packet is preferred"
/// and Section III-C's scheduler ordering are both instances of this order;
/// using one comparator keeps the dispatcher's H/L classification and the
/// scheduler's blocking relation consistent (which Lemma 2 relies on).
///
/// The engine hands SchedulePolicy::select its edge-head list sorted by
/// this order (see there), so priority-driven schedulers never sort.
inline bool chunk_higher_priority(const Candidate& a, const Candidate& b) noexcept {
  if (a.chunk_weight != b.chunk_weight) return a.chunk_weight > b.chunk_weight;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.packet < b.packet;
}

/// Output buffer of one SchedulePolicy::select call: the packets whose
/// head-of-line chunk transmits this round. A selection names packets, not
/// list positions, so it means the same whichever candidate list the policy
/// read (the edge-head list it was handed, or Engine::pending_by_priority);
/// the engine resolves each id through its per-packet arrays and rejects
/// ids that are not pending. The engine owns one Selection and hands the
/// same object to every round (cleared), so a policy that also keeps its
/// working buffers as members runs the steady-state round loop without a
/// single heap allocation -- the vector below only grows to the high-water
/// matching size once. Order is up to the policy; the engine serves the
/// chunks in selection order.
class Selection {
 public:
  void clear() noexcept { packets_.clear(); }
  void push(PacketIndex packet) { packets_.push_back(packet); }

  std::size_t size() const noexcept { return packets_.size(); }
  bool empty() const noexcept { return packets_.empty(); }
  const std::vector<PacketIndex>& packets() const noexcept { return packets_; }
  /// In-place access for callers that filter or reorder what a policy
  /// produced (the engine's reconfiguration-delay pass, test harnesses).
  std::vector<PacketIndex>& mutable_packets() noexcept { return packets_; }

 private:
  std::vector<PacketIndex> packets_;
};

class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;
  /// Called once per packet, in arrival order, at time == packet.arrival,
  /// after all earlier packets of the same step were dispatched.
  virtual RouteDecision dispatch(const Engine& engine, const Packet& packet) = 0;
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  /// Fills `out` (cleared by the caller) with the packets whose chunks
  /// transmit this round. The engine checks the selection occupies each
  /// transmitter/receiver at most once (or up to endpoint_capacity) and
  /// each edge at most once.
  ///
  /// Contract:
  ///  * `candidates` is the engine's edge-head list: for every edge with
  ///    pending chunks, its highest-priority pending chunk, plus its FIFO
  ///    head (earliest arrival, then lowest id) when that is a different
  ///    chunk -- at most two entries per edge, sorted by
  ///    chunk_higher_priority, each with its current `remaining`. Every
  ///    other pending chunk shares its edge (hence its transmitter and
  ///    receiver) with both heads, so a greedy pass in priority order
  ///    (stable matching, capacity 1 or b), a heaviest-chunk-per-pair
  ///    matching (MaxWeight) and every per-edge or per-pair FIFO rule
  ///    (iSLIP, Rotor, FIFO) choose exactly what they would choose from
  ///    the full pending list; the round costs O(edges), not O(backlog).
  ///  * A policy that needs every pending chunk -- one that draws from an
  ///    RNG once per chunk -- reads Engine::pending_by_priority() instead.
  ///    The engine builds that list on the first request and maintains it
  ///    incrementally from then on.
  ///  * `out` is an engine-owned scratch buffer reused across rounds;
  ///    policies must not keep references to it. Policies are expected to
  ///    keep their own working storage in members sized on first use so
  ///    the steady-state round loop allocates nothing (see the
  ///    allocation-counting test in tests/test_hotpath.cpp).
  ///  * Engine::active_endpoints(candidates) exposes a dense remap of the
  ///    endpoints that currently carry pending chunks, so per-endpoint
  ///    working state can be sized by the number of busy endpoints instead
  ///    of the topology.
  virtual void select(const Engine& engine, Time now,
                      const std::vector<Candidate>& candidates, Selection& out) = 0;
};

}  // namespace rdcn
