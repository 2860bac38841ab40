// Tests for Hopcroft-Karp maximum matching and the bottleneck assignment
// solver built on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "exact/bottleneck_assignment.hpp"
#include "exact/hopcroft_karp.hpp"
#include "support/rng.hpp"

namespace mf::exact {
namespace {

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph graph(4, 4);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t r = 0; r < 4; ++r) graph.add_edge(l, r);
  }
  const MatchingResult result = maximum_matching(graph);
  EXPECT_EQ(result.size, 4u);
}

TEST(HopcroftKarp, EmptyGraphHasNoMatching) {
  BipartiteGraph graph(3, 3);
  EXPECT_EQ(maximum_matching(graph).size, 0u);
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // L0-{R0}, L1-{R0,R1}: greedy L0->R0 must be augmented for both to match.
  BipartiteGraph graph(2, 2);
  graph.add_edge(0, 0);
  graph.add_edge(1, 0);
  graph.add_edge(1, 1);
  const MatchingResult result = maximum_matching(graph);
  EXPECT_EQ(result.size, 2u);
  EXPECT_EQ(result.left_match[0], 0u);
  EXPECT_EQ(result.left_match[1], 1u);
}

TEST(HopcroftKarp, BottleneckStructure) {
  // A star: 3 left vertices all only connected to R0 -> matching size 1.
  BipartiteGraph graph(3, 2);
  graph.add_edge(0, 0);
  graph.add_edge(1, 0);
  graph.add_edge(2, 0);
  EXPECT_EQ(maximum_matching(graph).size, 1u);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  support::Rng rng(3);
  BipartiteGraph graph(8, 10);
  for (std::size_t l = 0; l < 8; ++l) {
    for (std::size_t r = 0; r < 10; ++r) {
      if (rng.bernoulli(0.3)) graph.add_edge(l, r);
    }
  }
  const MatchingResult result = maximum_matching(graph);
  std::size_t matched = 0;
  for (std::size_t l = 0; l < 8; ++l) {
    if (result.left_match[l] == MatchingResult::npos) continue;
    ++matched;
    EXPECT_EQ(result.right_match[result.left_match[l]], l) << "inverse pointers must agree";
  }
  EXPECT_EQ(matched, result.size);
}

TEST(HopcroftKarp, EdgeValidation) {
  BipartiteGraph graph(2, 2);
  EXPECT_THROW(graph.add_edge(2, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(0, 2), std::invalid_argument);
}

double brute_force_bottleneck(const support::Matrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  std::vector<std::size_t> cols(m);
  std::iota(cols.begin(), cols.end(), 0u);
  double best = std::numeric_limits<double>::infinity();
  do {
    double worst = 0.0;
    for (std::size_t r = 0; r < n; ++r) worst = std::max(worst, cost.at(r, cols[r]));
    best = std::min(best, worst);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

TEST(Bottleneck, SingleCell) {
  support::Matrix cost(1, 1, 5.0);
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, 5.0);
}

TEST(Bottleneck, KnownExample) {
  // min-max differs from min-sum here: sum-optimal is (0,0)=1,(1,1)=100
  // with max 100; bottleneck-optimal is (0,1)=50,(1,0)=60 with max 60.
  support::Matrix cost(2, 2);
  cost.at(0, 0) = 1.0;
  cost.at(0, 1) = 50.0;
  cost.at(1, 0) = 60.0;
  cost.at(1, 1) = 100.0;
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, 60.0);
  EXPECT_EQ(result.row_to_col[0], 1u);
  EXPECT_EQ(result.row_to_col[1], 0u);
}

TEST(Bottleneck, RejectsBadShapes) {
  support::Matrix wide(3, 2, 1.0);
  EXPECT_THROW(solve_bottleneck_assignment(wide), std::invalid_argument);
}

TEST(Bottleneck, AugmentsPastTheLowerBound) {
  // Both rows are cheapest in column 0, so the row bound is 1, but only one
  // row can have it: the other must move to column 1, raising b* to 5.
  support::Matrix cost(2, 3);
  const double values[2][3] = {{1.0, 5.0, 9.0}, {1.0, 6.0, 9.0}};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) cost.at(r, c) = values[r][c];
  }
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_EQ(result.bottleneck_cost, 5.0);
  EXPECT_EQ(result.row_to_col[0], 1u);
  EXPECT_EQ(result.row_to_col[1], 0u);
}

TEST(Bottleneck, RejectsNonFiniteCosts) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    support::Matrix cost(3, 4, 1.0);
    cost.at(2, 3) = bad;
    EXPECT_THROW(solve_bottleneck_assignment(cost), std::invalid_argument) << bad;
  }
}

/// Solves `cost` and checks the bottleneck against exhaustive search and the
/// returned assignment against the bottleneck.
void expect_matches_brute_force(const support::Matrix& cost) {
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, brute_force_bottleneck(cost));
  // The returned assignment actually achieves the bottleneck.
  double worst = 0.0;
  std::vector<bool> used(cost.cols(), false);
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    const std::size_t c = result.row_to_col[r];
    EXPECT_FALSE(used[c]);
    used[c] = true;
    worst = std::max(worst, cost.at(r, c));
  }
  EXPECT_DOUBLE_EQ(worst, result.bottleneck_cost);
}

class BottleneckRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(BottleneckRandomTest, MatchesBruteForce) {
  const auto& [rows, cols, seed] = GetParam();
  support::Rng rng(seed);
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      cost.at(r, c) = std::floor(rng.uniform(0.0, 30.0));
    }
  }
  expect_matches_brute_force(cost);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BottleneckRandomTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 5),
                       ::testing::Values<std::size_t>(5, 6, 7),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

/// (rows, extra columns, seed) with costs in {0, 1, 2}: ties everywhere, and
/// extra = 0 gives the square shapes where the column bound applies.
class BottleneckTieHeavyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(BottleneckTieHeavyTest, MatchesBruteForce) {
  const auto& [rows, extra, seed] = GetParam();
  support::Rng rng(seed);
  support::Matrix cost(rows, rows + extra);
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    for (std::size_t c = 0; c < cost.cols(); ++c) {
      cost.at(r, c) = std::floor(rng.uniform(0.0, 3.0));
    }
  }
  expect_matches_brute_force(cost);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BottleneckTieHeavyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 5, 6),
                       ::testing::Values<std::size_t>(0, 1, 2),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6)));

}  // namespace
}  // namespace mf::exact
