#include "sim/pending_store.hpp"

#include <stdexcept>
#include <utility>

namespace rdcn {

void PendingStore::attach(const Topology& topology) {
  topology_ = &topology;
  base_ = 0;
  node_of_.clear();
  nodes_.clear();
  free_ = -1;
  size_ = 0;
  const auto num_edges = static_cast<std::size_t>(topology.num_edges());
  edges_.assign(num_edges, EdgeState{});
  for (std::size_t e = 0; e < num_edges; ++e) {
    const ReconfigEdge& edge = topology.edge(static_cast<EdgeIndex>(e));
    edges_[e].transmitter = edge.transmitter;
    edges_[e].receiver = edge.receiver;
  }
}

void PendingStore::reserve(std::size_t packets) {
  node_of_.reserve(packets);
  nodes_.reserve(packets);
}

// rdcn-lint: hot
void PendingStore::append_slot() { node_of_.push_back(-1); }

// rdcn-lint: hot
void PendingStore::erase_prefix(std::size_t n) {
  node_of_.erase(node_of_.begin(), node_of_.begin() + static_cast<std::ptrdiff_t>(n));
  base_ += static_cast<PacketIndex>(n);
}

// rdcn-lint: hot
bool PendingStore::higher_priority(Ref a, Ref b) const {
  const Node& na = nodes_[static_cast<std::size_t>(a)];
  const Node& nb = nodes_[static_cast<std::size_t>(b)];
  if (na.chunk_weight != nb.chunk_weight) return na.chunk_weight > nb.chunk_weight;
  if (na.arrival != nb.arrival) return na.arrival < nb.arrival;
  return na.packet < nb.packet;
}

// rdcn-lint: hot
PendingStore::Ref PendingStore::meld(Ref a, Ref b) {
  // Both arguments are roots (no siblings, no parent); the loser becomes
  // the winner's first child.
  if (a < 0) return b;
  if (b < 0) return a;
  if (higher_priority(b, a)) std::swap(a, b);
  Node& winner = node(a);
  Node& loser = node(b);
  loser.next = winner.child;
  if (winner.child >= 0) node(winner.child).prev = b;
  loser.prev = a;
  winner.child = b;
  return a;
}

// rdcn-lint: hot
PendingStore::Ref PendingStore::merge_pairs(Ref first) {
  // Standard two-pass combine of a sibling list: meld left-to-right pairs,
  // stacking the results through `next`, then meld the stack right to left.
  Ref stack = -1;
  while (first >= 0) {
    const Ref a = first;
    const Ref b = node(a).next;
    node(a).prev = -1;
    if (b < 0) {
      node(a).next = stack;
      stack = a;
      break;
    }
    first = node(b).next;
    node(a).next = -1;
    node(b).next = -1;
    node(b).prev = -1;
    const Ref pair = meld(a, b);
    node(pair).next = stack;
    stack = pair;
  }
  if (stack < 0) return -1;
  Ref result = stack;
  stack = node(result).next;
  node(result).next = -1;
  while (stack >= 0) {
    const Ref next = node(stack).next;
    node(stack).next = -1;
    result = meld(result, stack);
    stack = next;
  }
  return result;
}

// rdcn-lint: hot
void PendingStore::detach(Ref& root, Ref n) {
  Node& own = node(n);
  const Ref subtree = merge_pairs(own.child);
  if (root == n) {
    root = subtree;
  } else {
    Node& left = node(own.prev);
    if (left.child == n) {
      left.child = own.next;
    } else {
      left.next = own.next;
    }
    if (own.next >= 0) node(own.next).prev = own.prev;
    root = meld(root, subtree);
  }
  own.child = own.next = own.prev = -1;
}

// rdcn-lint: hot
bool PendingStore::insert(PacketIndex packet, EdgeIndex edge, Weight chunk_weight,
                          Time arrival) {
  Ref& slot = node_of_[static_cast<std::size_t>(packet - base_)];
  if (slot >= 0) throw std::logic_error("PendingStore: packet listed twice");
  if (free_ >= 0) {
    slot = free_;
    free_ = node(free_).next;
  } else {
    slot = static_cast<Ref>(nodes_.size());
    nodes_.emplace_back();  // rdcn-lint: allow(hot-alloc) -- pool grows to the high-water backlog, then recycles
  }
  const Ref n = slot;
  Node& listed = node(n);
  listed = Node{};
  listed.packet = packet;
  listed.chunk_weight = chunk_weight;
  listed.arrival = arrival;
  listed.edge = edge;
  ++size_;
  EdgeState& state = edges_[static_cast<std::size_t>(edge)];
  state.root = meld(state.root, n);
  // FIFO: walk back from the tail past every later (arrival, id) key --
  // zero steps for a fresh arrival, which is the latest on its edge.
  Ref prior = state.back;
  while (prior >= 0 && (node(prior).arrival > arrival ||
                        (node(prior).arrival == arrival && node(prior).packet > packet))) {
    prior = node(prior).before;
  }
  Ref& later = prior < 0 ? state.front : node(prior).after;
  listed.before = prior;
  listed.after = later;
  (listed.after < 0 ? state.back : node(listed.after).before) = n;
  later = n;
  return state.root == n || state.front == n;
}

// rdcn-lint: hot
bool PendingStore::erase(PacketIndex packet) {
  Ref& slot = node_of_[static_cast<std::size_t>(packet - base_)];
  if (slot < 0) throw std::logic_error("PendingStore: packet is not pending");
  const Ref n = slot;
  Node& listed = node(n);
  EdgeState& state = edges_[static_cast<std::size_t>(listed.edge)];
  const bool was_head = state.root == n || state.front == n;
  detach(state.root, n);
  (listed.before < 0 ? state.front : node(listed.before).after) = listed.after;
  (listed.after < 0 ? state.back : node(listed.after).before) = listed.before;
  --size_;
  slot = -1;
  listed.packet = -1;
  listed.edge = kInvalidEdge;
  listed.next = free_;
  free_ = n;
  return was_head;
}

const std::vector<PacketIndex>& PendingStore::collect(const std::vector<EdgeIndex>& edges,
                                                      std::vector<PacketIndex>& out) const {
  out.clear();
  for (const EdgeIndex e : edges) {
    for (Ref n = edges_[static_cast<std::size_t>(e)].front; n >= 0;
         n = nodes_[static_cast<std::size_t>(n)].after) {
      out.push_back(nodes_[static_cast<std::size_t>(n)].packet);
    }
  }
  return out;
}

}  // namespace rdcn
