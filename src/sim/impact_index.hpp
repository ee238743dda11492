#pragma once

// Incremental per-endpoint impact index: the engine-maintained
// order-statistic aggregate behind Delta_p(e) queries.
//
// impact_of must resolve, for a probe chunk weight w_p/d(e) against the
// chunks pending at e's transmitter t and receiver r,
//
//   |H_p(e)|   -- count of pending chunks with chunk weight >= w_p/d(e)
//                 (ties go to H: every pending packet arrived earlier), and
//   w(L_p(e))  -- total weight of the strictly lighter pending chunks,
//
// which the naive rule re-derives by scanning both endpoint queues per
// candidate edge. This index instead maintains one weight structure per
// transmitter, per receiver, and per (t, r) edge group ("pair": parallel
// edges share pending state). A structure aggregates every pending chunk
// of one distinct chunk-weight key into one entry:
//
//   count          exact remaining-chunk total at this key (int64)
//   value          (double)count * key, re-rounded on every count change
//
// and is named by one int32 handle whose representation is a pure
// function of how many distinct keys it holds:
//
//   0 keys    empty: the handle alone (-1).
//   1-2 keys  inline: the keys and counts sit in one flat entry, in key
//             order (no tree node, no priority hash, no tree walk), O(1)
//             to update and to query. This is the shallow-queue common
//             case: on the 8-rack pod at rho 0.5 (rdcnbench's
//             stream_shallow), endpoint structures hold 0 keys at 61% of
//             queries, 1 at 33%, 2 at 5% and 3+ at 0.5%; pair structures
//             are empty at 97%.
//   3+ keys   a hash-priority treap in a shared node pool; each node adds
//             sum = (left + value) + right, always bracketed that way, and
//             subtree_count. A query descends once in O(log n).
//
// A structure is promoted into the treap when a third key arrives and
// demoted back inline when it drains to two. A query accumulates the
// strictly-below-threshold count and weight sum; the at-or-above count is
// the (exact integer) complement. The split for an edge combines the three
// structures with a fixed shape:
//
//   |H| = (H_t + H_r) - H_pair        w(L) = (L_t + L_r) - L_pair
//
// (the pair structure removes the packets double-counted by both endpoint
// queues -- exactly those assigned to a parallel edge of the same pair).
//
// DETERMINISM BY CANONICAL SHAPE. Floating-point sums are association-
// sensitive, and an incremental structure cannot reproduce a flat
// queue-order sum bit-for-bit. The index therefore defines its own
// canonical summation order and makes it a pure function of the pending
// multiset: each node's heap priority is a stateless hash of its key's
// bits, so the treap shape -- hence every bracketing -- depends only on
// the SET of live keys, never on insertion/removal history. Rebuilding
// from scratch provably reproduces the incrementally-maintained sums bit
// for bit, which is what check/'s differential oracle and the property
// tests in tests/test_impact_index.cpp pin. Against the naive queue-order
// scan, |H| matches exactly (integer) while w(L) agrees to reassociation
// tolerance. The engine's schedule goldens verify that this never flips a
// dispatch decision on the pinned workloads.
//
// WHY INLINE IS EXACT. The inline entry answers exactly what the canonical
// treap of the same (at most two) keys answers, from the same integer
// counts. One key: the treap is a single node with v = (double)count *
// key, and below() yields {count, 0.0 + v} or {0, 0.0}. Two keys: the
// treap is a root with one leaf child, and whichever key is the root,
// below() adds the lower key's value and then the upper one's to a sum
// that starts at 0.0 -- (0.0 + v_low) + v_high when both are below the
// threshold (a one-node subtree's sum (0.0 + v) + 0.0 equals 0.0 + v,
// which is never -0.0). The inline entry computes those same expressions.
// Promotion and demotion are exact because the treap is a pure function
// of the multiset: promoting inserts all three keys into an empty tree,
// which builds the same tree as any history would, and demoting keeps the
// two surviving keys' integer counts. ImpactAggregate, the standalone
// oracle, stays on the plain treap, so tests compare the inline path
// against an independent representation.
//
// LIFECYCLE. Integer per-endpoint/per-pair chunk-load counters are always
// maintained, O(1) eagerly, on dispatch, per-chunk service, and unlisting
// -- they make JSQ's edge load a three-counter read with bit-identical
// results. The weight structures are lazily enabled on the first impact
// query (rebuilt from the engine's pending store) and thereafter maintained
// through a deferred-event queue flushed at query time: because the
// structure is a pure function of the current multiset, batching updates
// is equivalent to applying them eagerly. If many maintenance events
// accumulate with no impact query between them (a pure drain under a
// non-impact policy), the weight structures decay -- they are dropped and
// rebuilt at the next query -- so idle maintenance stays O(1) per event
// and bounded in memory. All storage is pooled and grow-once: at steady
// state neither queries nor maintenance touch the heap (pinned by
// tests/test_hotpath.cpp's allocation counter).

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/policy.hpp"

namespace rdcn {

/// Chunks strictly below a weight threshold: exact count plus the
/// canonically-bracketed weight sum.
struct WeightBelow {
  std::int64_t chunks = 0;
  double weight = 0.0;
};

/// The two pending-state terms of Delta_p(e).
struct ImpactSplit {
  std::int64_t heavier = 0;       ///< |H_p(e)|, exact
  double lighter_weight = 0.0;    ///< w(L_p(e)), canonical bracketing
};

/// The single combination formula shared by the live index and every
/// verification oracle, so "bit-for-bit" has one definition: transmitter
/// plus receiver minus the pair overlap, in exactly this association.
inline ImpactSplit combine_impact(std::int64_t t_chunks, const WeightBelow& t,
                                  std::int64_t r_chunks, const WeightBelow& r,
                                  std::int64_t pair_chunks, const WeightBelow& pair) {
  ImpactSplit split;
  split.heavier =
      (t_chunks - t.chunks) + (r_chunks - r.chunks) - (pair_chunks - pair.chunks);
  split.lighter_weight = (t.weight + r.weight) - pair.weight;
  return split;
}

namespace impact_detail {

/// One distinct chunk-weight key of one aggregate (see file comment).
struct TreapNode {
  double key = 0.0;
  double value = 0.0;  ///< (double)count * key
  double sum = 0.0;    ///< (left.sum + value) + right.sum
  std::int64_t count = 0;
  std::int64_t subtree_count = 0;
  std::uint64_t priority = 0;  ///< stateless hash of key bits
  std::int32_t left = -1;
  std::int32_t right = -1;
};

/// Arena of hash-priority treaps: many roots share one node pool (plus a
/// free list), so per-endpoint aggregates cost nothing when empty and the
/// pool grows once to the high-water number of distinct live keys.
class TreapStore {
 public:
  /// Adds `delta` chunks (may be negative) at `key`; returns the new root.
  /// A key whose count reaches zero leaves the tree; removing from an
  /// absent key is an engine bug and throws.
  std::int32_t add(std::int32_t root, double key, std::int64_t delta);

  /// Count and canonical weight sum of the keys strictly below `threshold`.
  WeightBelow below(std::int32_t root, double threshold) const;

  /// Total chunks in the tree (0 for an empty root).
  std::int64_t chunks(std::int32_t root) const {
    return root < 0 ? 0 : pool_[static_cast<std::size_t>(root)].subtree_count;
  }

  /// If the tree at `root` holds exactly two keys, copies their nodes out
  /// in key order, frees both, and returns true; otherwise changes nothing.
  bool take_pair(std::int32_t root, TreapNode& low, TreapNode& high);

  /// Drops every tree (roots become dangling; callers reset theirs to -1).
  /// Keeps the pool's capacity.
  void reset() {
    pool_.clear();
    free_ = -1;
    live_ = 0;
  }

  void reserve(std::size_t nodes) {
    pool_.reserve(nodes);
    path_.reserve(64);
  }
  std::size_t live_nodes() const noexcept { return live_; }
  std::size_t pool_capacity() const noexcept { return pool_.capacity(); }

 private:
  std::int32_t add_slow(std::int32_t root, double key, std::int64_t delta);
  std::int32_t alloc(double key, std::int64_t count);
  void release(std::int32_t n);
  void pull(std::int32_t n);
  bool higher_priority(std::int32_t a, std::int32_t b) const;
  std::int32_t rotate_left(std::int32_t n);
  std::int32_t rotate_right(std::int32_t n);
  std::int32_t join(std::int32_t a, std::int32_t b);

  std::vector<TreapNode> pool_;
  std::int32_t free_ = -1;  ///< free-list head threaded through `left`
  std::size_t live_ = 0;
  std::vector<std::int32_t> path_;  ///< add()'s fast-path search-path scratch
};

/// The live index's weight structures (see file comment), each named by
/// an int32 handle: -1 is empty, h >= 0 a treap root (3+ keys), and
/// h <= -2 entry -2 - h of a pool of inline entries (1 or 2 keys). An
/// empty structure costs its handle alone, and both pools grow once to
/// their high-water marks.
class WeightStore {
 public:
  /// Adds `delta` chunks at `key` to the structure `handle` names, moving
  /// it between empty, inline and treap as its key count crosses 0, 2 and
  /// 3. Same contract and answers as TreapStore::add on a plain root. The
  /// inline cases run here; trees, promotion and errors out of line.
  void add(std::int32_t& handle, double key, std::int64_t delta) {
    if (handle <= -2) {
      Inline& entry = inline_[static_cast<std::size_t>(-2 - handle)];
      int hit = -1;
      if (key == entry.key[0]) {
        hit = 0;
      } else if (entry.keys == 2 && key == entry.key[1]) {
        hit = 1;
      }
      if (hit >= 0) {
        const std::int64_t count = entry.count[hit] + delta;
        if (count > 0) {
          entry.count[hit] = count;
          return;
        }
        if (count == 0) {
          if (hit == 0) {
            entry.key[0] = entry.key[1];
            entry.count[0] = entry.count[1];
          }
          entry.count[--entry.keys] = 0;
          --inline_keys_;
          if (entry.keys == 0) {
            release_inline(-2 - handle);
            handle = -1;
          }
          return;
        }
      } else if (delta > 0 && entry.keys == 1) {
        const int at = key < entry.key[0] ? 0 : 1;
        if (at == 0) {
          entry.key[1] = entry.key[0];
          entry.count[1] = entry.count[0];
        }
        entry.key[at] = key;
        entry.count[at] = delta;
        entry.keys = 2;
        ++inline_keys_;
        return;
      }
    } else if (handle == -1 && delta > 0) {
      const std::int32_t i = alloc_inline();
      Inline& entry = inline_[static_cast<std::size_t>(i)];
      entry.key[0] = key;
      entry.count[0] = delta;
      entry.count[1] = 0;
      entry.keys = 1;
      ++inline_keys_;
      handle = -2 - i;
      return;
    }
    add_slow(handle, key, delta);
  }

  /// Count and weight sum of the keys strictly below `threshold`. Inline,
  /// the entries below it are added in key order to a sum that starts at
  /// 0.0, which is what the treap of the same keys computes.
  WeightBelow below(std::int32_t handle, double threshold) const {
    WeightBelow result;
    if (handle == -1) return result;
    if (handle >= 0) return trees_.below(handle, threshold);
    const Inline& entry = inline_[static_cast<std::size_t>(-2 - handle)];
    if (entry.key[0] < threshold) {
      result.chunks = entry.count[0];
      result.weight += static_cast<double>(entry.count[0]) * entry.key[0];
      if (entry.keys == 2 && entry.key[1] < threshold) {
        result.chunks += entry.count[1];
        result.weight += static_cast<double>(entry.count[1]) * entry.key[1];
      }
    }
    return result;
  }

  std::int64_t chunks(std::int32_t handle) const {
    if (handle >= 0) return trees_.chunks(handle);
    if (handle == -1) return 0;
    const Inline& entry = inline_[static_cast<std::size_t>(-2 - handle)];
    return entry.count[0] + entry.count[1];
  }

  /// Drops every structure (handles become dangling; callers reset theirs
  /// to -1). Keeps both pools' capacity.
  void reset() {
    trees_.reset();
    inline_.clear();
    inline_free_ = -1;
    inline_keys_ = 0;
  }

  void reserve(std::size_t tree_nodes, std::size_t inline_entries) {
    trees_.reserve(tree_nodes);
    inline_.reserve(inline_entries);
  }
  /// Distinct live keys over all structures: treap nodes plus inline keys.
  std::size_t live_keys() const noexcept { return trees_.live_nodes() + inline_keys_; }
  std::size_t tree_nodes() const noexcept { return trees_.live_nodes(); }

 private:
  /// One or two keys in increasing order; an unused second entry has
  /// count 0.
  struct Inline {
    double key[2] = {0.0, 0.0};
    std::int64_t count[2] = {0, 0};
    std::int32_t keys = 0;
    std::int32_t next_free = -1;  ///< free-list link while unused
  };

  std::int32_t alloc_inline() {
    if (inline_free_ < 0) {
      inline_.emplace_back();
      return static_cast<std::int32_t>(inline_.size() - 1);
    }
    const std::int32_t i = inline_free_;
    inline_free_ = inline_[static_cast<std::size_t>(i)].next_free;
    return i;
  }
  void release_inline(std::int32_t i) {
    inline_[static_cast<std::size_t>(i)].next_free = inline_free_;
    inline_free_ = i;
  }
  void add_slow(std::int32_t& handle, double key, std::int64_t delta);

  TreapStore trees_;
  std::vector<Inline> inline_;
  std::int32_t inline_free_ = -1;
  std::size_t inline_keys_ = 0;
};

}  // namespace impact_detail

/// Standalone single-endpoint aggregate over an explicit (chunk_weight,
/// chunks) multiset, always on the plain treap (never inline). The
/// verification oracle: feed it a queue's pending chunks in ANY order and
/// its below()/chunks() reproduce the incrementally-maintained index bit
/// for bit (canonical shape and exact inline form; see file comment).
class ImpactAggregate {
 public:
  void add(double chunk_weight, std::int64_t delta) {
    root_ = store_.add(root_, chunk_weight, delta);
  }
  std::int64_t chunks() const { return store_.chunks(root_); }
  WeightBelow below(double threshold) const { return store_.below(root_, threshold); }
  void clear() {
    store_.reset();
    root_ = -1;
  }

 private:
  impact_detail::TreapStore store_;
  std::int32_t root_ = -1;
};

class ImpactIndex {
 public:
  /// Binds the index to a topology: sizes the per-endpoint arrays and
  /// groups parallel edges into (t, r) pairs. Called from Engine::init.
  void attach(const Topology& topology);

  /// Presizes the weight pools for an expected pending-packet population
  /// (batch mode passes the instance size; each pending packet occupies at
  /// most three keys, typically shared between packets of equal key).
  void reserve_pending(std::size_t packets);

  std::int32_t pair_of(EdgeIndex e) const {
    return pair_of_[static_cast<std::size_t>(e)];
  }

  /// The engine's single mutation hook: `delta` chunks of one packet with
  /// the given chunk weight enter (dispatch) or leave (per-chunk service,
  /// unlisting) edge `e`. Counters update eagerly; weight-structure
  /// updates are deferred until the next query.
  void add_chunks(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                  std::int64_t delta);

  // --- O(1) integer loads (always on) -------------------------------------

  std::int64_t transmitter_chunks(NodeIndex t) const {
    return t_chunks_[static_cast<std::size_t>(t)];
  }
  std::int64_t receiver_chunks(NodeIndex r) const {
    return r_chunks_[static_cast<std::size_t>(r)];
  }
  std::int64_t pair_chunks(std::int32_t pair) const {
    return p_chunks_[static_cast<std::size_t>(pair)];
  }
  /// JSQ's signal: pending chunks parked at e's endpoints, each packet
  /// counted once. Bit-identical to the old two-queue scan (integer sums
  /// commute), at O(1).
  std::int64_t edge_load(EdgeIndex e) const {
    const ReconfigEdge& edge = topology_->edge(e);
    return t_chunks_[static_cast<std::size_t>(edge.transmitter)] +
           r_chunks_[static_cast<std::size_t>(edge.receiver)] -
           p_chunks_[static_cast<std::size_t>(pair_of(e))];
  }

  // --- weight-structure queries (lazily enabled) --------------------------

  bool weight_ready() const noexcept { return weight_ready_; }

  /// (Re)builds the weight structures from the full pending multiset and
  /// enables query-time maintenance: begin_rebuild() clears them, then one
  /// rebuild_add() per pending packet (any order -- the canonical shape
  /// makes the result order-independent). The engine runs this lazily on
  /// the first impact query and again after a decay.
  void begin_rebuild();
  void rebuild_add(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                   std::int64_t chunks);

  /// |H| and w(L) for edge `e` at `threshold` = w_p/d(e); requires
  /// weight_ready(). Flushes deferred maintenance first, then answers:
  /// O(1) per structure of at most two keys, O(log n) per treap.
  ImpactSplit edge_split(EdgeIndex e, double threshold) {
    if (!weight_ready_ || !events_.empty()) prepare_query();
    const ReconfigEdge& edge = topology_->edge(e);
    const std::int32_t t = t_root_[static_cast<std::size_t>(edge.transmitter)];
    const std::int32_t r = r_root_[static_cast<std::size_t>(edge.receiver)];
    const std::int32_t pair = p_root_[static_cast<std::size_t>(pair_of(e))];
    return combine_impact(store_.chunks(t), store_.below(t, threshold),
                          store_.chunks(r), store_.below(r, threshold),
                          store_.chunks(pair), store_.below(pair, threshold));
  }

  /// Test hooks.
  std::size_t deferred_events() const noexcept { return events_.size(); }
  /// Distinct live keys summed over every weight structure, inline keys
  /// included, as of the last flush -- surfaced as the probe's weight_keys
  /// gauge. 0 while the structures are off.
  std::size_t live_weight_keys() const noexcept { return store_.live_keys(); }
  /// The treap-held share of live_weight_keys(): nonzero while some
  /// structure holds three or more keys.
  std::size_t weight_tree_nodes() const noexcept { return store_.tree_nodes(); }
  /// Times rebuild() ran (lazy enables + post-decay rebuilds) -- surfaced
  /// as the probe's index_rebuilds counter.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  struct Event {
    double chunk_weight = 0.0;
    std::int64_t delta = 0;
    NodeIndex transmitter = 0;
    NodeIndex receiver = 0;
    std::int32_t pair = 0;
  };

  void apply_weight(NodeIndex t, NodeIndex r, std::int32_t pair, double chunk_weight,
                    std::int64_t delta);
  void prepare_query();  ///< throws before the first rebuild; else flushes
  void flush();
  void decay();

  const Topology* topology_ = nullptr;
  std::vector<std::int32_t> pair_of_;  ///< edge -> (t, r) group id
  std::int32_t num_pairs_ = 0;

  std::vector<std::int64_t> t_chunks_, r_chunks_, p_chunks_;

  impact_detail::WeightStore store_;
  std::vector<std::int32_t> t_root_, r_root_, p_root_;  ///< structure handles
  std::vector<Event> events_;  ///< deferred while weight_ready_; capacity-bounded
  bool weight_ready_ = false;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace rdcn
