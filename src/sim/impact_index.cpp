#include "sim/impact_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/rng.hpp"

namespace rdcn {

namespace impact_detail {

namespace {

/// Heap priority = stateless hash of the key's bit pattern: two trees
/// holding the same key set always have the same shape, which is the
/// purity property every bit-for-bit guarantee in this file rests on.
std::uint64_t priority_of(double key) {
  std::uint64_t state = std::bit_cast<std::uint64_t>(key);
  return splitmix64(state);
}

}  // namespace

bool TreapStore::higher_priority(std::int32_t a, std::int32_t b) const {
  const TreapNode& na = pool_[static_cast<std::size_t>(a)];
  const TreapNode& nb = pool_[static_cast<std::size_t>(b)];
  if (na.priority != nb.priority) return na.priority > nb.priority;
  // Hash collisions between distinct keys are vanishingly rare but must
  // still order deterministically for the shape to stay canonical.
  return na.key < nb.key;
}

std::int32_t TreapStore::alloc(double key, std::int64_t count) {
  if (count <= 0) {
    throw std::logic_error("impact index: removing chunks at an absent weight key");
  }
  std::int32_t n;
  if (free_ >= 0) {
    n = free_;
    free_ = pool_[static_cast<std::size_t>(n)].left;
  } else {
    n = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  TreapNode& node = pool_[static_cast<std::size_t>(n)];
  node.key = key;
  node.count = count;
  node.value = static_cast<double>(count) * key;
  node.sum = node.value;
  node.subtree_count = count;
  node.priority = priority_of(key);
  node.left = node.right = -1;
  ++live_;
  return n;
}

void TreapStore::release(std::int32_t n) {
  pool_[static_cast<std::size_t>(n)].left = free_;
  free_ = n;
  --live_;
}

void TreapStore::pull(std::int32_t n) {
  TreapNode& node = pool_[static_cast<std::size_t>(n)];
  const std::int32_t l = node.left;
  const std::int32_t r = node.right;
  node.value = static_cast<double>(node.count) * node.key;
  const double left_sum = l >= 0 ? pool_[static_cast<std::size_t>(l)].sum : 0.0;
  const double right_sum = r >= 0 ? pool_[static_cast<std::size_t>(r)].sum : 0.0;
  node.sum = (left_sum + node.value) + right_sum;
  node.subtree_count = node.count +
                       (l >= 0 ? pool_[static_cast<std::size_t>(l)].subtree_count : 0) +
                       (r >= 0 ? pool_[static_cast<std::size_t>(r)].subtree_count : 0);
}

std::int32_t TreapStore::rotate_right(std::int32_t n) {
  const std::int32_t l = pool_[static_cast<std::size_t>(n)].left;
  pool_[static_cast<std::size_t>(n)].left = pool_[static_cast<std::size_t>(l)].right;
  pool_[static_cast<std::size_t>(l)].right = n;
  pull(n);
  pull(l);
  return l;
}

std::int32_t TreapStore::rotate_left(std::int32_t n) {
  const std::int32_t r = pool_[static_cast<std::size_t>(n)].right;
  pool_[static_cast<std::size_t>(n)].right = pool_[static_cast<std::size_t>(r)].left;
  pool_[static_cast<std::size_t>(r)].left = n;
  pull(n);
  pull(r);
  return r;
}

std::int32_t TreapStore::join(std::int32_t a, std::int32_t b) {
  // Joining the canonical treaps of two key ranges yields the canonical
  // treap of their union: priorities alone decide the merge order.
  if (a < 0) return b;
  if (b < 0) return a;
  if (higher_priority(a, b)) {
    const std::int32_t merged = join(pool_[static_cast<std::size_t>(a)].right, b);
    pool_[static_cast<std::size_t>(a)].right = merged;
    pull(a);
    return a;
  }
  const std::int32_t merged = join(a, pool_[static_cast<std::size_t>(b)].left);
  pool_[static_cast<std::size_t>(b)].left = merged;
  pull(b);
  return b;
}

std::int32_t TreapStore::add(std::int32_t root, double key, std::int64_t delta) {
  // Fast path: a count change at a key already in the tree (the dominant
  // stream -- one per served chunk) leaves the shape untouched, so only
  // the aggregates along the search path need recomputing. pull() here is
  // bit-identical to the recursive unwind of add_slow: same nodes, same
  // bottom-up order, same bracketing. Falls back to the general
  // insert/remove when the key is absent or its count drains to zero.
  path_.clear();
  std::int32_t n = root;
  while (n >= 0) {
    const TreapNode& node = pool_[static_cast<std::size_t>(n)];
    if (key == node.key) break;
    path_.push_back(n);
    n = key < node.key ? node.left : node.right;
  }
  if (n >= 0 && pool_[static_cast<std::size_t>(n)].count + delta > 0) {
    pool_[static_cast<std::size_t>(n)].count += delta;
    pull(n);
    for (std::size_t i = path_.size(); i-- > 0;) pull(path_[i]);
    return root;
  }
  return add_slow(root, key, delta);
}

std::int32_t TreapStore::add_slow(std::int32_t root, double key, std::int64_t delta) {
  // NOTE: pool_ may reallocate inside recursive calls (alloc), so node
  // fields are always re-read through pool_[...] after a call returns.
  if (root < 0) return alloc(key, delta);
  const double root_key = pool_[static_cast<std::size_t>(root)].key;
  if (key == root_key) {
    TreapNode& node = pool_[static_cast<std::size_t>(root)];
    node.count += delta;
    if (node.count < 0) {
      throw std::logic_error("impact index: chunk count went negative");
    }
    if (node.count == 0) {
      const std::int32_t merged = join(node.left, node.right);
      release(root);
      return merged;
    }
    pull(root);
    return root;
  }
  if (key < root_key) {
    const std::int32_t child = add_slow(pool_[static_cast<std::size_t>(root)].left, key, delta);
    pool_[static_cast<std::size_t>(root)].left = child;
    if (child >= 0 && higher_priority(child, root)) return rotate_right(root);
    pull(root);
    return root;
  }
  const std::int32_t child = add_slow(pool_[static_cast<std::size_t>(root)].right, key, delta);
  pool_[static_cast<std::size_t>(root)].right = child;
  if (child >= 0 && higher_priority(child, root)) return rotate_left(root);
  pull(root);
  return root;
}

bool TreapStore::take_pair(std::int32_t root, TreapNode& low, TreapNode& high) {
  const TreapNode& top = pool_[static_cast<std::size_t>(root)];
  if (top.left >= 0 && top.right >= 0) return false;
  const std::int32_t child = top.left >= 0 ? top.left : top.right;
  if (child < 0) return false;
  const TreapNode& leaf = pool_[static_cast<std::size_t>(child)];
  if (leaf.left >= 0 || leaf.right >= 0) return false;
  low = top.left >= 0 ? leaf : top;
  high = top.left >= 0 ? top : leaf;
  release(child);
  release(root);
  return true;
}

WeightBelow TreapStore::below(std::int32_t root, double threshold) const {
  // One descent, visiting the strictly-below nodes in increasing key
  // order; the running sum's association is therefore fixed by the
  // (canonical) shape, independent of update history.
  WeightBelow result;
  std::int32_t n = root;
  while (n >= 0) {
    const TreapNode& node = pool_[static_cast<std::size_t>(n)];
    if (node.key < threshold) {
      if (node.left >= 0) {
        const TreapNode& left = pool_[static_cast<std::size_t>(node.left)];
        result.chunks += left.subtree_count;
        result.weight += left.sum;
      }
      result.chunks += node.count;
      result.weight += node.value;
      n = node.right;
    } else {
      n = node.left;
    }
  }
  return result;
}

void WeightStore::add_slow(std::int32_t& handle, double key, std::int64_t delta) {
  if (handle >= 0) {
    const std::size_t nodes_before = trees_.live_nodes();
    handle = trees_.add(handle, key, delta);
    TreapNode low, high;
    if (trees_.live_nodes() < nodes_before && trees_.take_pair(handle, low, high)) {
      // Down to two keys: demote them in key order (see file comment).
      const std::int32_t i = alloc_inline();
      Inline& entry = inline_[static_cast<std::size_t>(i)];
      entry.key[0] = low.key;
      entry.count[0] = low.count;
      entry.key[1] = high.key;
      entry.count[1] = high.count;
      entry.keys = 2;
      inline_keys_ += 2;
      handle = -2 - i;
    }
    return;
  }
  if (handle <= -2 && delta > 0) {
    // A third key (the inline path took every other insertion): promote.
    // Purity makes the inserted tree canonical.
    const std::int32_t i = -2 - handle;
    const Inline& entry = inline_[static_cast<std::size_t>(i)];
    std::int32_t root = trees_.add(-1, entry.key[0], entry.count[0]);
    root = trees_.add(root, entry.key[1], entry.count[1]);
    handle = trees_.add(root, key, delta);
    release_inline(i);
    inline_keys_ -= 2;
    return;
  }
  bool present = false;
  if (handle <= -2) {
    const Inline& entry = inline_[static_cast<std::size_t>(-2 - handle)];
    present = key == entry.key[0] || (entry.keys == 2 && key == entry.key[1]);
  }
  throw std::logic_error(present
                             ? "impact index: chunk count went negative"
                             : "impact index: removing chunks at an absent weight key");
}

}  // namespace impact_detail

void ImpactIndex::attach(const Topology& topology) {
  topology_ = &topology;
  const auto num_t = static_cast<std::size_t>(topology.num_transmitters());
  const auto num_r = static_cast<std::size_t>(topology.num_receivers());
  const auto num_e = static_cast<std::size_t>(topology.num_edges());

  // Group parallel edges by (transmitter, receiver) in O(E + R): walk each
  // transmitter's edges and stamp the receivers it reaches. A hash map (or
  // a sort) here is measurably expensive because attach runs once per
  // engine reset. Nothing depends on the pair numbering beyond
  // consistency.
  pair_of_.assign(num_e, -1);
  receiver_stamp_.assign(num_r, -1);
  receiver_pair_.assign(num_r, -1);
  num_pairs_ = 0;
  for (NodeIndex t = 0; t < static_cast<NodeIndex>(num_t); ++t) {
    for (EdgeIndex e : topology.edges_of_transmitter(t)) {
      const auto r = static_cast<std::size_t>(topology.edge(e).receiver);
      if (receiver_stamp_[r] != t) {
        receiver_stamp_[r] = t;
        receiver_pair_[r] = num_pairs_++;
      }
      pair_of_[static_cast<std::size_t>(e)] = receiver_pair_[r];
    }
  }

  t_chunks_.assign(num_t, 0);
  r_chunks_.assign(num_r, 0);
  p_chunks_.assign(static_cast<std::size_t>(num_pairs_), 0);
  t_root_.assign(num_t, -1);
  r_root_.assign(num_r, -1);
  p_root_.assign(static_cast<std::size_t>(num_pairs_), -1);
  store_.reset();
  weight_ready_ = false;
  updates_since_query_ = 0;
}

void ImpactIndex::reserve_pending(std::size_t packets) {
  // Each pending packet holds one key in its transmitter, receiver and
  // pair structure; distinct keys (tree nodes) and non-empty inline
  // structures are shared, so 3x packets is a ceiling for both, capped to
  // keep huge batch instances from over-reserving.
  const std::size_t ceiling = 3 * std::min<std::size_t>(packets, 1u << 16);
  store_.reserve(ceiling, ceiling);
}

void ImpactIndex::add_chunks(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                             std::int64_t delta) {
  const std::int32_t pair = pair_of(e);
  t_chunks_[static_cast<std::size_t>(t)] += delta;
  r_chunks_[static_cast<std::size_t>(r)] += delta;
  p_chunks_[static_cast<std::size_t>(pair)] += delta;
  if (!weight_ready_) return;
  ++updates_since_query_;
  apply_weight(t, r, pair, chunk_weight, delta);
}

void ImpactIndex::apply_weight(NodeIndex t, NodeIndex r, std::int32_t pair,
                               double chunk_weight, std::int64_t delta) {
  store_.add(t_root_[static_cast<std::size_t>(t)], chunk_weight, delta);
  store_.add(r_root_[static_cast<std::size_t>(r)], chunk_weight, delta);
  store_.add(p_root_[static_cast<std::size_t>(pair)], chunk_weight, delta);
}

void ImpactIndex::disable_weights() {
  if (!weight_ready_) return;  // the handles are already all -1
  store_.reset();
  std::fill(t_root_.begin(), t_root_.end(), -1);
  std::fill(r_root_.begin(), r_root_.end(), -1);
  std::fill(p_root_.begin(), p_root_.end(), -1);
  weight_ready_ = false;
  updates_since_query_ = 0;
}

void ImpactIndex::begin_rebuild() {
  disable_weights();
  weight_ready_ = true;
}

void ImpactIndex::rebuild_add(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                              std::int64_t chunks) {
  if (chunks <= 0) return;
  apply_weight(t, r, pair_of(e), chunk_weight, chunks);
}

void ImpactIndex::throw_not_ready() {
  throw std::logic_error("impact index: edge_split before rebuild");
}

}  // namespace rdcn
