// Pinned bottleneck assignments (tests/golden_bottleneck.inc, captured from
// the implementation that sorted every distinct cost and bisected over them
// with a fresh Hopcroft-Karp probe per step). The solver now starts at the
// row/column lower bound and raises it by minimax augmenting paths; it must
// reproduce every row_to_col byte for byte and every bottleneck cost and
// one-to-one period bit for bit. The instances cover:
//
//   * Figure 9's shape (n = m = 100, machine-independent failures) for every
//     type count the sweep draws, several seeds each, both as the raw
//     x_i * w_{i,u} cost matrix and through optimal_one_to_one_task_failures;
//     several of them have a lower bound below the optimum;
//   * rectangular (n < m) matrices and problems, including widths that
//     straddle the 64-column mask words;
//   * tie-heavy integer matrices, some crowded so that many augmentations
//     run, and an all-integer, failure-free problem whose costs are the w
//     table itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/failure.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exact/one_to_one.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

namespace mf {
namespace {

using core::MachineIndex;
using core::TaskIndex;

/// Figure 9's generator with `tasks` tasks and `types` types on its 100
/// machines. "fig09-<types>" is the figure's own point; "rect-oto" drops to
/// 40 tasks so the one-to-one mapping leaves machines idle.
core::Problem fig09_problem(std::size_t tasks, std::size_t types, std::uint64_t seed) {
  exp::Scenario scenario = exp::figure9_spec().base;
  scenario.tasks = tasks;
  scenario.types = types;
  return exp::generate(scenario, seed);
}

/// 12 tasks on 15 machines, w in {1, 2, 3} and no failures: every x_i is 1,
/// so the bottleneck costs are the w table and ties are everywhere.
core::Problem ties_problem(std::uint64_t seed) {
  exp::Scenario scenario = exp::figure9_spec().base;
  scenario.tasks = 12;
  scenario.machines = 15;
  scenario.types = 4;
  const core::Problem base = exp::generate(scenario, seed);
  support::Rng rng(seed);
  support::Matrix w(12, 15);
  for (TaskIndex i = 0; i < 12; ++i) {
    for (MachineIndex u = 0; u < 15; ++u) w.at(i, u) = 1.0 + std::floor(rng.uniform(0.0, 3.0));
  }
  return core::Problem{base.app, core::Platform{std::move(w), support::Matrix(12, 15, 0.0)}};
}

core::Problem golden_problem(const std::string& name, std::uint64_t seed) {
  unsigned types = 0;
  if (std::sscanf(name.c_str(), "fig09-%u", &types) == 1) return fig09_problem(100, types, seed);
  if (name == "rect-oto") return fig09_problem(40, 20, seed);
  if (name == "ties-oto") return ties_problem(seed);
  ADD_FAILURE() << "unknown problem instance " << name;
  return fig09_problem(100, 20, seed);
}

/// The one-to-one cost matrix x_i * w_{i,u} of a machine-independent-failure
/// problem, built as optimal_one_to_one_task_failures builds it.
support::Matrix oto_costs(const core::Problem& problem) {
  std::vector<double> x(problem.task_count(), 0.0);
  for (TaskIndex i : problem.app.backward_order()) {
    const TaskIndex succ = problem.app.successor(i);
    const double downstream = succ == core::kNoTask ? 1.0 : x[succ];
    x[i] = downstream * core::survival_inverse(problem.platform.failure(i, 0));
  }
  support::Matrix cost(problem.task_count(), problem.machine_count());
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
      cost.at(i, u) = x[i] * problem.platform.time(i, u);
    }
  }
  return cost;
}

/// "fig09-<types>": the Figure 9 problem's cost matrix. "rect-<n>x<m>":
/// uniform reals in [0, 1). "ties-<n>x<m>": integers in {0, 1, 2}.
/// "crowd-<n>x<m>": integers in {0, 1, 2} on the first n/2 columns and in
/// {3, 4, 5} beyond, so every row's minimum sits in a block too narrow for
/// all rows and the row bound always starts below the optimum.
support::Matrix golden_matrix(const std::string& name, std::uint64_t seed) {
  if (name.rfind("fig09-", 0) == 0) return oto_costs(golden_problem(name, seed));
  char kind[8] = {};
  unsigned rows = 0;
  unsigned cols = 0;
  if (std::sscanf(name.c_str(), "%7[a-z]-%ux%u", kind, &rows, &cols) != 3) {
    ADD_FAILURE() << "unknown matrix instance " << name;
    return support::Matrix(1, 1, 0.0);
  }
  const std::string family = kind;
  support::Rng rng(seed);
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (family == "rect") {
        cost.at(r, c) = rng.uniform();
      } else {
        const double crowd_step = family == "crowd" && c >= rows / 2 ? 3.0 : 0.0;
        cost.at(r, c) = std::floor(rng.uniform(0.0, 3.0)) + crowd_step;
      }
    }
  }
  return cost;
}

/// max over rows of the row minimum, and over columns of the column minimum
/// when square: the threshold the solver starts from.
double start_threshold(const support::Matrix& cost) {
  double bound = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    double row_min = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cost.cols(); ++c) row_min = std::min(row_min, cost.at(r, c));
    bound = std::max(bound, row_min);
  }
  if (cost.rows() != cost.cols()) return bound;
  for (std::size_t c = 0; c < cost.cols(); ++c) {
    double col_min = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < cost.rows(); ++r) col_min = std::min(col_min, cost.at(r, c));
    bound = std::max(bound, col_min);
  }
  return bound;
}

struct GoldenEntry {
  const char* solver;  ///< "bottleneck" (a cost matrix) or "oto" (a problem)
  const char* instance;
  std::uint64_t seed;
  double value;  ///< bottleneck_cost, or the one-to-one period
  std::vector<std::size_t> assignment;
};

const std::vector<GoldenEntry>& golden_entries() {
  static const std::vector<GoldenEntry> entries{
#include "golden_bottleneck.inc"
  };
  return entries;
}

TEST(BottleneckGolden, AssignmentsBitIdenticalToBisectionCapture) {
  const auto& entries = golden_entries();
  ASSERT_EQ(entries.size(), 108u);
  for (const GoldenEntry& entry : entries) {
    SCOPED_TRACE(std::string(entry.solver) + " " + entry.instance +
                 " seed=" + std::to_string(entry.seed));
    std::vector<std::size_t> assignment;
    if (std::string(entry.solver) == "bottleneck") {
      const exact::BottleneckResult result =
          exact::solve_bottleneck_assignment(golden_matrix(entry.instance, entry.seed));
      EXPECT_EQ(result.bottleneck_cost, entry.value);
      assignment = result.row_to_col;
    } else {
      const core::Problem problem = golden_problem(entry.instance, entry.seed);
      const exact::OneToOneSolution solution = exact::optimal_one_to_one_task_failures(problem);
      EXPECT_EQ(solution.period, entry.value);
      for (TaskIndex i = 0; i < solution.mapping.task_count(); ++i) {
        assignment.push_back(solution.mapping.machine_of(i));
      }
    }
    ASSERT_EQ(assignment.size(), entry.assignment.size());
    for (std::size_t r = 0; r < assignment.size(); ++r) {
      EXPECT_EQ(assignment[r], entry.assignment[r]) << "row_to_col[" << r << "]";
    }
  }
}

TEST(BottleneckGolden, InstancesExerciseTheAugmentingStage) {
  // The pinned set must keep covering both exits: optimum at the start
  // threshold (no augmentation) and optimum above it (augmentation ran),
  // on Figure 9's shape and on the tie-heavy and rectangular matrices.
  std::size_t fig09_raised = 0;
  std::size_t fig09_at_bound = 0;
  std::size_t other_raised = 0;
  std::size_t rectangular = 0;
  for (const GoldenEntry& entry : golden_entries()) {
    if (std::string(entry.solver) != "bottleneck") continue;
    const support::Matrix cost = golden_matrix(entry.instance, entry.seed);
    const double start = start_threshold(cost);
    ASSERT_LE(start, entry.value) << entry.instance << " seed=" << entry.seed;
    const bool fig09 = std::string(entry.instance).rfind("fig09-", 0) == 0;
    if (start < entry.value) ++(fig09 ? fig09_raised : other_raised);
    if (fig09 && start == entry.value) ++fig09_at_bound;
    if (cost.rows() < cost.cols()) ++rectangular;
  }
  EXPECT_GE(fig09_raised, 5u);
  EXPECT_GE(fig09_at_bound, 5u);
  EXPECT_GE(other_raised, 10u);
  EXPECT_GE(rectangular, 10u);
}

}  // namespace
}  // namespace mf
