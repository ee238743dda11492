#pragma once

// The engine's one record of pending reconfigurable-route packets: every
// packet committed to an edge that still has untransmitted chunks. Per
// edge it keeps two orders at once:
//
//  * an intrusive pairing heap in chunk priority order
//    (chunk_higher_priority), whose root is the edge's priority head;
//  * an intrusive doubly-linked list in FIFO order (arrival, then id),
//    whose front is the edge's FIFO head. Packets reach an edge in id order
//    and arrivals never decrease with id, so a new packet is appended at
//    the back; only a re-dispatched packet walks back to its place.
//
// The two heads are the only chunks of the edge that a deterministic
// scheduler can pick in a round (see SchedulePolicy::select), so a round
// reads only heads. Listing costs O(log n) amortized (the heap meld),
// unlisting O(log n) amortized for the priority head and O(1) for the
// FIFO list.
//
// No per-edge allocation: the per-edge state is the heap root, the list
// ends and the edge's endpoints, in one array sized once from the
// topology. Nodes come from one pool that grows to the high-water number
// of pending packets and recycles freed nodes through a free list; links
// are pool indices, so they never move. A window-slot-indexed array maps
// each packet to its node and follows the engine's sliding per-packet
// window (append_slot / erase_prefix). Memory is O(window) at 4 bytes per
// slot plus O(pending) nodes -- not a node per window slot, which
// long-lived stragglers would stretch far beyond the backlog.

// rdcn-lint: hot-file

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/policy.hpp"

namespace rdcn {

class PendingStore {
 public:
  /// Sizes the per-edge array from the topology and empties the store
  /// (window map and node pool keep their capacity).
  void attach(const Topology& topology);
  /// Presizes the window map and node pool (batch mode, which knows its
  /// packet count).
  void reserve(std::size_t packets);

  /// Opens the node of the next sequential packet id (mirrors the engine's
  /// window), and drops the first `n` nodes once they are retired.
  void append_slot();
  void erase_prefix(std::size_t n);

  /// Lists `packet` on `edge`. The key (chunk_weight, arrival, id) is
  /// immutable while the packet is listed. Returns true iff the packet
  /// became one of the edge's heads.
  bool insert(PacketIndex packet, EdgeIndex edge, Weight chunk_weight, Time arrival);
  /// Unlists a listed packet. Returns true iff it was one of the edge's
  /// heads.
  bool erase(PacketIndex packet);

  /// True iff `packet` (whose window slot must exist) is listed.
  bool contains(PacketIndex packet) const { return node_of(packet) >= 0; }
  /// The edge a listed packet pends on.
  EdgeIndex edge_of(PacketIndex packet) const {
    return nodes_[static_cast<std::size_t>(node_of(packet))].edge;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Appends the edge's priority head, then its FIFO head when that is a
  /// different packet, to `out` (nothing for an empty edge). `remaining`
  /// is left 0: the store does not track service.
  void append_heads(EdgeIndex e, std::vector<Candidate>& out) const {
    const EdgeState& state = edges_[static_cast<std::size_t>(e)];
    if (state.root < 0) return;
    push_candidate(state.root, e, state, out);
    if (state.front != state.root) push_candidate(state.front, e, state, out);
  }

  /// The listed packets on transmitter t / receiver r, edge by edge in
  /// FIFO order. Built on request into a reusable buffer (one per side),
  /// valid until the next call for the same side: O(packets listed there
  /// + incident edges).
  const std::vector<PacketIndex>& on_transmitter(NodeIndex t) const {
    return collect(topology_->edges_of_transmitter(t), transmitter_view_);
  }
  const std::vector<PacketIndex>& on_receiver(NodeIndex r) const {
    return collect(topology_->edges_of_receiver(r), receiver_view_);
  }

  /// Visits every listed packet, edge by edge in FIFO order.
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (const EdgeState& state : edges_) {
      for (Ref n = state.front; n >= 0; n = nodes_[static_cast<std::size_t>(n)].after) {
        visit(nodes_[static_cast<std::size_t>(n)].packet);
      }
    }
  }

 private:
  using Ref = std::int32_t;  ///< pool index; -1 = none

  struct Node {
    PacketIndex packet = -1;
    Weight chunk_weight = 0.0;
    Time arrival = 0;
    EdgeIndex edge = kInvalidEdge;
    // Priority heap links.
    Ref child = -1;
    Ref next = -1;  ///< right sibling (the free-list link of a free node)
    Ref prev = -1;  ///< left sibling, or the parent for a first child
    // FIFO list links.
    Ref before = -1;
    Ref after = -1;
  };
  struct EdgeState {
    Ref root = -1;   ///< priority heap root
    Ref front = -1;  ///< FIFO list ends
    Ref back = -1;
    NodeIndex transmitter = 0;
    NodeIndex receiver = 0;
  };

  Ref node_of(PacketIndex packet) const {
    return node_of_[static_cast<std::size_t>(packet - base_)];
  }
  Node& node(Ref n) { return nodes_[static_cast<std::size_t>(n)]; }
  void push_candidate(Ref n, EdgeIndex e, const EdgeState& state,
                      std::vector<Candidate>& out) const {
    const Node& listed = nodes_[static_cast<std::size_t>(n)];
    out.push_back(Candidate{listed.packet, e, state.transmitter, state.receiver,  // rdcn-lint: allow(hot-alloc) -- caller reserves two entries per edge
                            listed.chunk_weight, listed.arrival, 0});
  }

  bool higher_priority(Ref a, Ref b) const;
  Ref meld(Ref a, Ref b);
  Ref merge_pairs(Ref first);
  void detach(Ref& root, Ref n);
  const std::vector<PacketIndex>& collect(const std::vector<EdgeIndex>& edges,
                                          std::vector<PacketIndex>& out) const;

  const Topology* topology_ = nullptr;
  PacketIndex base_ = 0;        ///< packet id of window slot 0
  std::vector<Ref> node_of_;    ///< window slot -> pool node, -1 if unlisted
  std::vector<Node> nodes_;     ///< the pool
  Ref free_ = -1;               ///< free-list head (linked through next)
  std::vector<EdgeState> edges_;
  std::size_t size_ = 0;
  mutable std::vector<PacketIndex> transmitter_view_;
  mutable std::vector<PacketIndex> receiver_view_;
};

}  // namespace rdcn
