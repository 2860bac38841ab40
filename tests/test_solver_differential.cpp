// Differential test over the whole solver registry: every built-in id runs
// through SolveService on the same random small instances, and every answer
// is checked against exhaustive enumeration. A new solver registered in
// register_builtin_solvers is covered without touching this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "exact/brute_force.hpp"
#include "exp/scenario.hpp"
#include "solve/adapters.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "support/rng.hpp"

namespace mf::solve {
namespace {

constexpr std::uint64_t kInstances = 60;

bool is_one_to_one(std::uint64_t index) { return index % 4 == 0; }

/// Instance `index`: a chain or (every third) an in-tree with n <= 7,
/// m <= 4, p <= 3. Every fourth has n <= m and task-only failures, so oto
/// gets past its precondition instead of refusing.
core::Problem draw_problem(std::uint64_t index) {
  support::Rng rng(index);
  exp::Scenario scenario;
  scenario.machines = rng.uniform_u64(1, 4);
  scenario.types = rng.uniform_u64(1, std::min<std::uint64_t>(3, scenario.machines));
  const bool one_to_one = is_one_to_one(index);
  scenario.tasks = rng.uniform_u64(scenario.types, one_to_one ? scenario.machines : 7);
  if (one_to_one) scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
  const std::uint64_t seed = 1000 + index;
  return index % 3 == 0 ? exp::generate_in_tree(scenario, 0.5, seed)
                        : exp::generate(scenario, seed);
}

/// One case per instance, so a failure names the instance that broke.
class SolverDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverDifferential, EveryBuiltinSolverIsBoundedByBruteForce) {
  const std::uint64_t index = GetParam();
  // The built-in ids rather than the process-wide registry's: other suites
  // register deliberately throwing or blocking doubles there, and a
  // single-process run of the whole binary would pick them up.
  SolverRegistry builtins;
  register_builtin_solvers(builtins);
  const std::vector<std::string> ids = builtins.ids();

  const auto problem = std::make_shared<const core::Problem>(draw_problem(index));
  std::vector<SolveRequest> requests;
  for (const std::string& id : ids) {
    requests.push_back(SolveRequest{.problem = problem, .solver_id = id});
  }
  const std::vector<SolveResult> results = SolveService(nullptr).solve_all(requests);
  ASSERT_EQ(results.size(), requests.size());

  const exact::BruteForceResult reference =
      exact::brute_force_optimal(*problem, core::MappingRule::kSpecialized);
  ASSERT_TRUE(reference.mapping.has_value());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const SolveResult& result = results[k];
    SCOPED_TRACE("instance " + std::to_string(index) + " (n=" +
                 std::to_string(problem->task_count()) + " m=" +
                 std::to_string(problem->machine_count()) + "), solver " + ids[k]);
    EXPECT_NE(result.status, Status::kError) << result.diagnostics.note;
    // On the one-to-one instances oto's precondition holds by construction.
    if (ids[k] == "oto" && is_one_to_one(index)) {
      EXPECT_EQ(result.status, Status::kOptimal) << result.diagnostics.note;
    }
    if (!result.mapping.has_value()) continue;
    EXPECT_TRUE(result.mapping->complies_with(core::MappingRule::kSpecialized, problem->app,
                                              problem->machine_count()));
    EXPECT_GE(result.period, reference.period * (1.0 - 1e-9));
    if (ids[k] == "bnb" && result.status == Status::kOptimal) {
      EXPECT_EQ(result.period, reference.period);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, SolverDifferential,
                         ::testing::Range<std::uint64_t>(0, kInstances));

}  // namespace
}  // namespace mf::solve
