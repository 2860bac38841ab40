// Pinned branch-and-bound results (tests/golden_bnb.inc, captured from the
// implementation that built a fresh candidate vector at every node, sorted
// it with std::stable_sort and read per-task minima in the bound's walk).
// The search now keeps one candidate slice per depth, sorts it by insertion
// and walks a precomputed backward-order layout; it must visit the same
// nodes in the same order with the same doubles. So every mapping must
// match byte for byte, every period bit for bit, and every node count
// exactly: a prune that flips anywhere in the tree moves `nodes`. The one
// deliberate change since the capture: the node that trips the budget is
// never expanded and no longer counted, so a budget-exhausted entry reads
// exactly max_nodes (the capture read max_nodes + 1). The instances cover:
//
//   * the first three trials of every Figure 10 and Figure 12 point, drawn
//     at the figures' own seeds and solved at the figures' node budget;
//   * the same instances at a 20,000-node budget, so the budget-exhausted
//     exit (incumbent kept, proven_optimal false) is pinned too;
//   * in-trees with joins (generate_in_tree at join 0.2, 0.5 and 0.8), where
//     a task has several predecessors and the bound's walk meets a
//     successor more than once;
//   * failure-free chains with w in {1, 2, 3}, where candidates tie on their
//     resulting load and the stable order among ties decides the search;
//   * solves without the heuristic warm start (seed_with_heuristics false),
//     where the search must find its own first incumbent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exact/specialized_bnb.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

namespace mf {
namespace {

/// "fig10/p<point>/t<trial>" and "fig12/p<point>/t<trial>": trial `trial`
/// of point `point` of the figure, drawn exactly as exp::run_sweep draws it
/// (tasks = the point's sweep value, seed mixed from the figure's base seed,
/// the point index and the trial). "tree<join %>/<n>x<m>x<p>/s<seed>": a
/// generate_in_tree instance with n tasks, m machines and p types.
/// "ties/<n>x<m>x<p>/s<seed>": a chain with integer w in {1, 2, 3} per
/// (type, machine) and no failures, so many candidate machines leave equal
/// loads and the order among ties decides which incumbent is found first.
core::Problem golden_problem(const std::string& name) {
  unsigned figure = 0;
  unsigned point = 0;
  unsigned trial = 0;
  if (std::sscanf(name.c_str(), "fig%u/p%u/t%u", &figure, &point, &trial) == 3) {
    const exp::SweepSpec spec = figure == 10 ? exp::figure10_spec() : exp::figure12_spec();
    return exp::trial_problem(spec, point, trial);
  }
  unsigned join_percent = 0;
  unsigned tasks = 0;
  unsigned machines = 0;
  unsigned types = 0;
  unsigned seed = 0;
  if (std::sscanf(name.c_str(), "tree%u/%ux%ux%u/s%u", &join_percent, &tasks, &machines,
                  &types, &seed) == 5) {
    exp::Scenario scenario;
    scenario.tasks = tasks;
    scenario.machines = machines;
    scenario.types = types;
    return exp::generate_in_tree(scenario, join_percent / 100.0, seed);
  }
  if (std::sscanf(name.c_str(), "ties/%ux%ux%u/s%u", &tasks, &machines, &types, &seed) == 4) {
    exp::Scenario scenario;
    scenario.tasks = tasks;
    scenario.machines = machines;
    scenario.types = types;
    core::Application app = exp::generate(scenario, seed).app;
    support::Rng rng(seed);
    support::Matrix type_times(types, machines);
    for (std::size_t t = 0; t < types; ++t) {
      for (std::size_t u = 0; u < machines; ++u) {
        type_times.at(t, u) = 1.0 + std::floor(rng.uniform(0.0, 3.0));
      }
    }
    core::Platform platform = core::Platform::from_type_tables(
        app, type_times, support::Matrix(types, machines, 0.0));
    return core::Problem{std::move(app), std::move(platform)};
  }
  ADD_FAILURE() << "unknown problem instance " << name;
  return exp::generate(exp::Scenario{}, 0);
}

struct GoldenEntry {
  const char* instance;
  std::uint64_t max_nodes;
  bool warm_start;  ///< BnBOptions::seed_with_heuristics
  double period;
  std::uint64_t nodes;
  bool proven_optimal;
  std::vector<std::size_t> assignment;
};

const std::vector<GoldenEntry>& golden_entries() {
  static const std::vector<GoldenEntry> entries{
#include "golden_bnb.inc"
  };
  return entries;
}

exact::BnBResult solve(const GoldenEntry& entry) {
  exact::BnBOptions options;
  options.max_nodes = entry.max_nodes;
  options.seed_with_heuristics = entry.warm_start;
  return exact::solve_specialized_optimal(golden_problem(entry.instance), options);
}

void expect_pinned(const GoldenEntry& entry, const exact::BnBResult& result) {
  EXPECT_EQ(result.nodes, entry.nodes);
  if (!entry.proven_optimal) EXPECT_EQ(result.nodes, entry.max_nodes) << "exhausted budget";
  EXPECT_EQ(result.proven_optimal, entry.proven_optimal);
  EXPECT_EQ(result.period, entry.period);
  ASSERT_TRUE(result.mapping.has_value());
  const std::vector<std::size_t>& assignment = result.mapping->assignment();
  ASSERT_EQ(assignment.size(), entry.assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    EXPECT_EQ(assignment[i], entry.assignment[i]) << "machine of task " << i;
  }
}

/// The pinned entries split into slices so ctest runs them in parallel:
/// the figure-budget Figure 12 solves dominate the suite's time.
constexpr std::size_t kSlices = 8;

class BnBGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BnBGolden, ResultsAndNodeCountsMatchCapture) {
  const auto& entries = golden_entries();
  for (std::size_t k = GetParam(); k < entries.size(); k += kSlices) {
    const GoldenEntry& entry = entries[k];
    SCOPED_TRACE(std::string(entry.instance) + " max_nodes=" + std::to_string(entry.max_nodes) +
                 (entry.warm_start ? "" : " cold"));
    expect_pinned(entry, solve(entry));
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, BnBGolden, ::testing::Range<std::size_t>(0, kSlices));

TEST(BnBGoldenCoverage, EntriesCoverEveryExitAndFamily) {
  // The pinned set must keep covering both exits (proof and exhausted
  // budget), both figures, the in-tree and tie-heavy families and cold
  // starts.
  std::size_t proven = 0;
  std::size_t exhausted = 0;
  std::size_t fig10 = 0;
  std::size_t fig12 = 0;
  std::size_t trees = 0;
  std::size_t ties = 0;
  std::size_t cold = 0;
  for (const GoldenEntry& entry : golden_entries()) {
    ++(entry.proven_optimal ? proven : exhausted);
    const std::string name = entry.instance;
    fig10 += name.rfind("fig10/", 0) == 0 ? 1 : 0;
    fig12 += name.rfind("fig12/", 0) == 0 ? 1 : 0;
    trees += name.rfind("tree", 0) == 0 ? 1 : 0;
    ties += name.rfind("ties/", 0) == 0 ? 1 : 0;
    cold += entry.warm_start ? 0 : 1;
  }
  EXPECT_EQ(golden_entries().size(), fig10 + fig12 + trees + ties);
  // Eight Figure 10 and nine Figure 12 points, three trials each, at two
  // budgets.
  EXPECT_GE(fig10, 2u * 8 * 3);
  EXPECT_GE(fig12, 2u * 9 * 3);
  EXPECT_GE(trees, 9u);
  EXPECT_GE(ties, 8u);
  EXPECT_GE(cold, 5u);
  EXPECT_GE(proven, 20u);
  EXPECT_GE(exhausted, 5u);
}

}  // namespace
}  // namespace mf
