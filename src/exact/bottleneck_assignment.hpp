// Linear bottleneck assignment: match every row to a distinct column
// minimizing the *maximum* selected cost (not the sum).
//
// This is the exact structure of the one-to-one mapping problem when the
// failure rates do not depend on the machine (f_{i,u} = f_i, the Section 7.2
// setting): the x_i are then mapping-independent and the period of a
// one-to-one mapping is max_i x_i * w_{i,a(i)} — a bottleneck assignment on
// costs c(i,u) = x_i * w_{i,u}.
//
// Solved bound-first: the threshold starts at max over rows of the row
// minimum (and, when square, over columns of the column minimum), which no
// perfect matching can beat. One Hopcroft-Karp matching on the edges under
// it is then grown by minimax augmenting paths, each raising the threshold
// to the smallest value that admits a larger matching, until it reaches the
// optimum b*. The returned assignment is the Hopcroft-Karp matching on the
// edges with cost <= b*, so it does not depend on the augmenting paths.
#pragma once

#include "exact/hungarian.hpp"
#include "support/matrix.hpp"

namespace mf::exact {

struct BottleneckResult {
  std::vector<std::size_t> row_to_col;
  double bottleneck_cost = 0.0;  ///< the minimized maximum edge cost
};

/// Requires cost.rows() <= cost.cols(); all costs finite.
[[nodiscard]] BottleneckResult solve_bottleneck_assignment(const support::Matrix& cost);

}  // namespace mf::exact
