#pragma once

// Worst-case impact Delta_p(e) of Section III-B: the dispatcher's estimate
// of the weighted-latency increase caused by committing packet p to edge
// e = (t, r), given the chunks already pending in the system:
//
//   Delta_p(e) = w_p * ( d(src,t) + (d(e)+1)/2 + d(r,dest) )   (base path)
//              + w_p * |H_p(e)|                                (p blocked)
//              + d(e) * w(L_p(e))                              (p blocks)
//
// where A_p(e) is the set of pending chunks of earlier-arrived packets
// assigned to edges sharing t or r with e; H_p(e) are those at least as
// heavy as w_p/d(e) (ties prefer the earlier packet, hence >= on weights),
// and L_p(e) the strictly lighter ones.

#include "sim/engine.hpp"

namespace rdcn {

struct ImpactBreakdown {
  double base = 0.0;      ///< w_p * (d(u) + (d(e)+1)/2 + d(v))
  std::int64_t h_count = 0;  ///< |H_p(e)|: pending chunks that may block p
  double l_weight = 0.0;  ///< w(L_p(e)): weight of chunks p may block
  double delta = 0.0;     ///< the full Delta_p(e)
};

namespace impact_detail {

/// The deterministic parts of Delta_p(e) shared by both formulations. The
/// engine precomputes d(u) + (d(e) + 1)/2 + d(v) per edge with the same
/// association this function used to spell out, so base is bit-identical.
inline ImpactBreakdown base_terms(const Engine& engine, const Packet& packet, EdgeIndex e,
                                  double& d, double& own_chunk_weight) {
  const Engine::EdgeMeta& meta = engine.edge_meta(e);
  d = meta.delay;
  own_chunk_weight = packet.weight / d;
  ImpactBreakdown breakdown;
  breakdown.base = packet.weight * meta.base_coeff;
  return breakdown;
}

}  // namespace impact_detail

/// Computes Delta_p(e) against the engine's current pending state (the
/// packet itself must not have been enqueued yet). Resolves |H_p(e)| and
/// w(L_p(e)) through the engine's incremental impact index, O(1) at
/// shallow queues and O(log n) at deep ones; h_count is exact, l_weight
/// carries the index's canonical summation order (see
/// sim/impact_index.hpp). Inline: it runs once per candidate edge of every
/// dispatch.
inline ImpactBreakdown impact_of(const Engine& engine, const Packet& packet,
                                 EdgeIndex e) {
  double d = 0.0;
  double own_chunk_weight = 0.0;
  ImpactBreakdown breakdown =
      impact_detail::base_terms(engine, packet, e, d, own_chunk_weight);

  // All pending packets arrived (in sequence order) before `packet`,
  // because the dispatcher runs at arrival time before enqueueing it; so
  // every pending chunk is in B_p and ties in weight go to H. The index's
  // strictly-below query at threshold w_p/d(e) realizes exactly that >=
  // convention: the at-or-above complement is H.
  const ImpactSplit split = engine.impact_split(e, own_chunk_weight);
  breakdown.h_count = split.heavier;
  breakdown.l_weight = split.lighter_weight;

  breakdown.delta = breakdown.base +
                    packet.weight * static_cast<double>(breakdown.h_count) +
                    d * breakdown.l_weight;
  return breakdown;
}

/// The pre-index formulation: a full scan over both endpoint queues.
/// O(pending) per call -- kept as the verification oracle behind check/'s
/// differential cross-validation and the property tests; not on any hot
/// path. Agrees with impact_of exactly on base/h_count and to summation-
/// reassociation tolerance on l_weight/delta.
ImpactBreakdown impact_of_scan(const Engine& engine, const Packet& packet, EdgeIndex e);

}  // namespace rdcn
