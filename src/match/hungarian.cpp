#include "match/hungarian.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace rdcn {

void HungarianWorkspace::solve(const double* cost, std::size_t rows, std::size_t cols,
                               std::vector<std::int32_t>& row_to_col) {
  row_to_col.assign(rows, -1);
  if (rows == 0) return;
  if (rows > cols) throw std::invalid_argument("assignment needs rows <= cols");
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Classic O(n^3) Hungarian with 1-based row/column potentials (e-maxx /
  // Jonker-Volgenant), rectangular rows <= cols, plus two structural
  // changes. First, the Jonker-Volgenant initialization: column reduction
  // (v[j] = column minimum) and a greedy row pass matching each row to its
  // minimum reduced-cost column when still free -- on typical matrices
  // this assigns most rows up front, so the augmentation loop below only
  // runs for the leftovers. Second, inside an augmentation, columns not
  // yet in the alternating tree live in a swap-remove free list, so each
  // step touches only the still-free columns instead of scanning all of
  // them behind an `if (used)` branch. Column 0 is the virtual root;
  // p_[j] = row matched to column j.
  u_.assign(rows + 1, 0.0);
  v_.assign(cols + 1, 0.0);
  p_.assign(cols + 1, 0);
  way_.assign(cols + 1, 0);
  // The augmenting-path lists hold at most every column (plus the root);
  // sizing them to that bound up front keeps a later, longer path than any
  // seen so far from growing them mid-run.
  free_cols_.reserve(cols);
  used_cols_.reserve(cols + 1);
  if (rows == cols) {
    // Column reduction is only dual-feasible when every column ends up
    // matched (complementary slackness needs v == 0 on unmatched columns),
    // i.e. for square problems; rectangular ones keep v = 0 and rely on
    // the row-minimum greedy pass alone.
    for (std::size_t j = 1; j <= cols; ++j) v_[j] = cost[j - 1];
    for (std::size_t i = 1; i < rows; ++i) {
      const double* row = cost + i * cols;  // row[j - 1] == cost[i][j-1]
      for (std::size_t j = 1; j <= cols; ++j) {
        if (row[j - 1] < v_[j]) v_[j] = row[j - 1];
      }
    }
  }
  for (std::size_t i = 1; i <= rows; ++i) {
    const double* row = cost + (i - 1) * cols;  // row[j - 1] == cost[i-1][j-1]
    double best = row[0] - v_[1];
    std::size_t best_j = 1;
    for (std::size_t j = 2; j <= cols; ++j) {
      const double cur = row[j - 1] - v_[j];
      if (cur < best) {
        best = cur;
        best_j = j;
      }
    }
    u_[i] = best;  // feasible: cost[i][j] - u[i] - v[j] >= 0 for every j
    if (p_[best_j] == 0) {
      p_[best_j] = i;  // reduced cost 0 on the matched cell
      row_to_col[i - 1] = static_cast<std::int32_t>(best_j - 1);
    }
  }
  for (std::size_t i = 1; i <= rows; ++i) {
    if (row_to_col[i - 1] >= 0) continue;  // matched by the greedy pass
    p_[0] = i;
    std::size_t j0 = 0;
    minv_.assign(cols + 1, kInf);
    free_cols_.clear();
    for (std::size_t j = 1; j <= cols; ++j) free_cols_.push_back(j);
    used_cols_.clear();
    used_cols_.push_back(0);
    do {
      const std::size_t i0 = p_[j0];
      const double* row = cost + (i0 - 1) * cols;  // row[j - 1] == cost[i0-1][j-1]
      const double ui0 = u_[i0];
      double delta = kInf;
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < free_cols_.size(); ++pos) {
        const std::size_t j = free_cols_[pos];
        const double cur = row[j - 1] - ui0 - v_[j];
        if (cur < minv_[j]) {
          minv_[j] = cur;
          way_[j] = j0;
        }
        if (minv_[j] < delta) {
          delta = minv_[j];
          best_pos = pos;
        }
      }
      const std::size_t j1 = free_cols_[best_pos];
      for (std::size_t j : used_cols_) {
        u_[p_[j]] += delta;
        v_[j] -= delta;
      }
      for (std::size_t j : free_cols_) minv_[j] -= delta;
      free_cols_[best_pos] = free_cols_.back();
      free_cols_.pop_back();
      used_cols_.push_back(j1);
      j0 = j1;
    } while (p_[j0] != 0);
    do {
      const std::size_t j1 = way_[j0];
      p_[j0] = p_[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (std::size_t j = 1; j <= cols; ++j) {
    if (p_[j] != 0) row_to_col[p_[j] - 1] = static_cast<std::int32_t>(j - 1);
  }
}

std::vector<std::int32_t> min_cost_assignment(const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  if (n == 0) return {};
  std::vector<double> flat;
  flat.reserve(n * n);
  for (const auto& row : cost) {
    if (row.size() != n) throw std::invalid_argument("assignment matrix must be square");
    flat.insert(flat.end(), row.begin(), row.end());
  }
  HungarianWorkspace workspace;
  std::vector<std::int32_t> assignment;
  workspace.solve(flat.data(), n, n, assignment);
  return assignment;
}

MatchingResult max_weight_matching(const std::vector<WeightedBipartiteEdge>& edges,
                                   std::size_t num_left, std::size_t num_right) {
  MatchingResult result;
  if (edges.empty() || num_left == 0 || num_right == 0) return result;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  // Cell (i, j) holds minus the best (heaviest) gain between i and j;
  // absent pairs cost 0, so the optimal assignment restricted to
  // negative-cost cells is exactly a maximum-weight matching. Transpose so
  // rows is the smaller side (the solver is rectangular).
  // MaxWeightScheduler::select (baseline/schedulers.cpp) inlines this
  // encoding over its candidate list -- keep the two in sync.
  const bool transpose = num_left > num_right;
  const std::size_t rows = transpose ? num_right : num_left;
  const std::size_t cols = transpose ? num_left : num_right;
  std::vector<double> cost(rows * cols, 0.0);
  std::vector<std::size_t> best_edge(rows * cols, kNone);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto& e = edges[k];
    assert(e.left >= 0 && static_cast<std::size_t>(e.left) < num_left);
    assert(e.right >= 0 && static_cast<std::size_t>(e.right) < num_right);
    const auto i = static_cast<std::size_t>(transpose ? e.right : e.left);
    const auto j = static_cast<std::size_t>(transpose ? e.left : e.right);
    if (-e.weight < cost[i * cols + j]) {
      cost[i * cols + j] = -e.weight;
      best_edge[i * cols + j] = k;
    }
  }

  HungarianWorkspace workspace;
  std::vector<std::int32_t> assignment;
  workspace.solve(cost.data(), rows, cols, assignment);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto j = static_cast<std::size_t>(assignment[i]);
    const std::size_t cell = i * cols + j;
    if (cost[cell] < 0.0 && best_edge[cell] != kNone) {
      result.edges.push_back(best_edge[cell]);
      result.total_weight -= cost[cell];
    }
  }
  return result;
}

}  // namespace rdcn
