#include "core/randomized.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rdcn {

void PerturbedStableScheduler::select(const Engine& engine, Time /*now*/,
                                      const std::vector<Candidate>& /*heads*/,
                                      Selection& out) {
  // One noise draw per pending chunk: the perturbation needs the full list.
  const std::vector<Candidate>& candidates = engine.pending_by_priority();
  // Log-normal multiplicative noise keeps weights positive and preserves
  // large weight gaps while shuffling near-ties.
  noisy_.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double u1 = rng_.next_double();
    const double u2 = rng_.next_double();
    const double normal =
        std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
    noisy_[i] = candidates[i].chunk_weight * std::exp(sigma_ * normal);
  }
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    if (noisy_[a] != noisy_[b]) return noisy_[a] > noisy_[b];
    if (candidates[a].arrival != candidates[b].arrival) {
      return candidates[a].arrival < candidates[b].arrival;
    }
    return candidates[a].packet < candidates[b].packet;
  });
  scratch_.select_in_order(engine, candidates, order_, out);
}

void RandomSerialDictatorScheduler::select(const Engine& engine, Time /*now*/,
                                           const std::vector<Candidate>& /*heads*/,
                                           Selection& out) {
  const std::vector<Candidate>& candidates = engine.pending_by_priority();
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  rng_.shuffle(order_);
  scratch_.select_in_order(engine, candidates, order_, out);
}

}  // namespace rdcn
