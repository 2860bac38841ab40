#include "exact/bottleneck_assignment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/simd.hpp"
#include "exact/hopcroft_karp.hpp"
#include "support/check.hpp"

namespace mf::exact {

namespace {

constexpr std::size_t kNpos = MatchingResult::npos;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Maximum matching using only edges with cost <= threshold.
MatchingResult probe(const support::Matrix& cost, double threshold) {
  const core::simd::KernelTable& kernels = core::simd::active();
  BipartiteGraph graph(cost.rows(), cost.cols());
  std::vector<std::uint64_t> words((cost.cols() + 63) / 64, 0);
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    // Compare the row wide into a bitmask, then walk the set bits. Bit
    // order is column order, so edges enter the adjacency lists in exactly
    // the sequence the scalar scan produced — the matching is identical,
    // not merely equivalent.
    const std::span<const double> row = cost.row_data(r);
    kernels.leq_mask(row.data(), threshold, row.size(), words.data());
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const std::size_t c = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        graph.add_edge(r, c);
      }
    }
  }
  return maximum_matching(graph);
}

/// Every row needs an edge, so no threshold below its cheapest entry admits
/// a perfect matching; when n == m every column needs one too. Validates
/// finiteness on the same pass.
double start_threshold(const support::Matrix& cost) {
  const std::size_t m = cost.cols();
  const bool square = cost.rows() == m;
  std::vector<double> col_min(square ? m : 0, kInf);
  double bound = -kInf;
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    const std::span<const double> row = cost.row_data(r);
    double row_min = kInf;
    for (std::size_t c = 0; c < m; ++c) {
      MF_REQUIRE(std::isfinite(row[c]), "costs must be finite");
      row_min = std::min(row_min, row[c]);
      if (square) col_min[c] = std::min(col_min[c], row[c]);
    }
    bound = std::max(bound, row_min);
  }
  for (const double c : col_min) bound = std::max(bound, c);
  return bound;
}

/// Grows `match` by one edge along the alternating path from a free row to a
/// free column whose largest cost is smallest, and returns that cost.
/// Matched edges cost nothing extra: they already sit under the threshold.
/// A dense Dijkstra with max in place of +, over columns: O(n * m).
double augment_minimax(const support::Matrix& cost, MatchingResult& match) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  std::vector<double> label(m, kInf);      // minimax cost of reaching column c
  std::vector<std::size_t> via(m, kNpos);  // row that reached column c
  std::vector<char> settled(m, 0);

  const auto relax = [&](std::size_t r, double reach) {
    const std::span<const double> row = cost.row_data(r);
    for (std::size_t c = 0; c < m; ++c) {
      const double through = std::max(reach, row[c]);
      if (settled[c] == 0 && through < label[c]) {
        label[c] = through;
        via[c] = r;
      }
    }
  };
  for (std::size_t r = 0; r < n; ++r) {
    if (match.left_match[r] == kNpos) relax(r, -kInf);
  }

  std::size_t col = kNpos;
  for (;;) {
    col = kNpos;
    for (std::size_t c = 0; c < m; ++c) {
      if (settled[c] == 0 && (col == kNpos || label[c] < label[col])) {
        col = c;
      }
    }
    MF_CHECK(col != kNpos, "no augmenting path in a complete bipartite graph");
    const std::size_t owner = match.right_match[col];
    if (owner == kNpos) break;
    settled[col] = 1;
    relax(owner, label[col]);
  }

  // `col` is free: flip the path back to the free row it started from.
  const double path_max = label[col];
  for (;;) {
    const std::size_t r = via[col];
    const std::size_t previous = match.left_match[r];
    match.left_match[r] = col;
    match.right_match[col] = r;
    if (previous == kNpos) break;
    col = previous;
  }
  ++match.size;
  return path_max;
}

}  // namespace

BottleneckResult solve_bottleneck_assignment(const support::Matrix& cost) {
  const std::size_t n = cost.rows();
  MF_REQUIRE(n >= 1, "bottleneck assignment needs at least one row");
  MF_REQUIRE(n <= cost.cols(), "bottleneck assignment requires rows <= cols");

  // Start at a threshold no larger than the optimum b*, then raise it only
  // as far as each augmenting path demands. The matching at every step is
  // maximum for the current threshold, so by Berge's lemma the cheapest
  // augmenting path is the smallest raise that admits a larger matching,
  // and the threshold stops at exactly b* (always a matrix entry).
  double threshold = start_threshold(cost);
  MatchingResult matching = probe(cost, threshold);
  if (matching.size < n) {
    do {
      threshold = std::max(threshold, augment_minimax(cost, matching));
    } while (matching.size < n);
    // Re-probe at b* so the assignment is the one Hopcroft-Karp builds on
    // the b* threshold graph, whichever augmenting paths led here.
    matching = probe(cost, threshold);
  }
  MF_CHECK(matching.size == n, "threshold search lost feasibility");

  BottleneckResult result;
  result.bottleneck_cost = threshold;
  result.row_to_col.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    MF_CHECK(matching.left_match[r] != kNpos, "row left unmatched");
    result.row_to_col[r] = matching.left_match[r];
  }
  return result;
}

}  // namespace mf::exact
