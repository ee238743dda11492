#include "core/impact.hpp"

namespace rdcn {

ImpactBreakdown impact_of_scan(const Engine& engine, const Packet& packet, EdgeIndex e) {
  const Topology& topology = engine.topology();
  const ReconfigEdge& edge = topology.edge(e);
  double d = 0.0;
  double own_chunk_weight = 0.0;
  ImpactBreakdown breakdown =
      impact_detail::base_terms(engine, packet, e, d, own_chunk_weight);

  auto account = [&](PacketIndex q) {
    const double q_chunk_weight = engine.chunk_weight(q);
    const std::int64_t q_remaining = engine.remaining_chunks(q);
    if (q_chunk_weight >= own_chunk_weight) {
      breakdown.h_count += q_remaining;
    } else {
      breakdown.l_weight += static_cast<double>(q_remaining) * q_chunk_weight;
    }
  };

  for (PacketIndex q : engine.pending_on_transmitter(edge.transmitter)) account(q);
  for (PacketIndex q : engine.pending_on_receiver(edge.receiver)) {
    // Skip packets already counted through the transmitter side (their
    // assigned edge shares both endpoints with e, e.g. a parallel edge).
    if (engine.assigned_transmitter(q) == edge.transmitter) continue;
    account(q);
  }

  breakdown.delta = breakdown.base + packet.weight * static_cast<double>(breakdown.h_count) +
                    d * breakdown.l_weight;
  return breakdown;
}

}  // namespace rdcn
