// Pinned mappings for the binary-search heuristics H2 and H3
// (tests/golden_binary_search.inc, captured from the implementation that
// re-sorted every machine for every task on every bisection pass). The
// engine now builds each selector's machine preference once per problem;
// it must reproduce every mapping byte for byte and every period bit for
// bit. The instances cover:
//
//   * the first point of Figures 5, 7 and 9 (the shapes the figure sweeps
//     spend their H2 time on), several seeds each;
//   * rows that break type-uniformity: same-type tasks with different w
//     rows, so H2's per-row-class orders must fall back to one class per
//     deviating task;
//   * equal rank with different w on every machine (H2's w tie-break) and
//     equal w across machines (the index tie-break);
//   * random in-trees, where joins make downstream product counts differ
//     from the chain's.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "heuristics/heuristic.hpp"
#include "support/matrix.hpp"

namespace mf {
namespace {

using core::MachineIndex;
using core::TaskIndex;

/// First point of a figure sweep, drawn by the paper's iid generator.
core::Problem figure_first_point(const exp::SweepSpec& spec, std::uint64_t seed) {
  exp::Scenario scenario = spec.base;
  switch (spec.variable) {
    case exp::SweepVariable::kTasks:
      scenario.tasks = spec.values.front();
      break;
    case exp::SweepVariable::kTypes:
      scenario.types = spec.values.front();
      break;
    case exp::SweepVariable::kMachines:
      scenario.machines = spec.values.front();
      break;
  }
  return exp::generate(scenario, seed);
}

/// Copies `base`'s failure rates and replaces its w table by `time(i, u, w)`.
template <typename TimeFn>
core::Problem with_times(const core::Problem& base, TimeFn time) {
  const std::size_t n = base.task_count();
  const std::size_t m = base.machine_count();
  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (TaskIndex i = 0; i < n; ++i) {
    for (MachineIndex u = 0; u < m; ++u) {
      w.at(i, u) = time(i, u, base.platform.time(i, u));
      f.at(i, u) = base.platform.failure(i, u);
    }
  }
  return core::Problem{base.app, core::Platform{std::move(w), std::move(f)}};
}

core::Problem small_chain(std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.tasks = 18;
  scenario.machines = 6;
  scenario.types = 3;
  return exp::generate(scenario, seed);
}

core::Problem golden_instance(const std::string& name, std::uint64_t seed) {
  if (name == "fig05") return figure_first_point(exp::figure5_spec(), seed);
  if (name == "fig07") return figure_first_point(exp::figure7_spec(), seed);
  if (name == "fig09") return figure_first_point(exp::figure9_spec(), seed);
  if (name == "mixed-rows") {
    // Every third task gets a skewed row and every fifth a reversed one, so
    // same-type tasks disagree on w while the rest keep their type's row.
    const core::Problem base = small_chain(seed);
    const std::size_t m = base.machine_count();
    return with_times(base, [&](TaskIndex i, MachineIndex u, double w) {
      if (i % 3 == 1) return w + 37.0 * static_cast<double>(u + 1);
      if (i % 5 == 2) return base.platform.time(i, m - 1 - u);
      return w;
    });
  }
  if (name == "rank-ties") {
    // w = base(type) x scale(machine): a task has the same rank on every
    // machine, so H2 orders by w; machines {0, 4} and {1, 2} tie on w too
    // and fall back to the index.
    const core::Problem base = small_chain(seed);
    const double type_base[] = {300.0, 100.0, 200.0};
    const double scale[] = {1.0, 1.5, 1.5, 2.0, 1.0, 3.0};
    return with_times(base, [&](TaskIndex i, MachineIndex u, double) {
      return type_base[base.app.type_of(i)] * scale[u];
    });
  }
  if (name == "flat") {
    // Every w equal: all ranks and all w tie; only failures tell machines
    // apart.
    return with_times(small_chain(seed), [](TaskIndex, MachineIndex, double) { return 250.0; });
  }
  if (name == "in-tree") {
    exp::Scenario scenario;
    scenario.tasks = 20;
    scenario.machines = 7;
    scenario.types = 3;
    return exp::generate_in_tree(scenario, 0.4, seed);
  }
  ADD_FAILURE() << "unknown golden instance " << name;
  return small_chain(seed);
}

struct GoldenEntry {
  const char* method;
  const char* instance;
  std::uint64_t seed;
  double period;  // hexfloat-captured, compared bit-exactly
  std::vector<MachineIndex> assignment;
};

const std::vector<GoldenEntry>& golden_entries() {
  static const std::vector<GoldenEntry> entries{
#include "golden_binary_search.inc"
  };
  return entries;
}

TEST(BinarySearchGolden, MappingsByteIdenticalToPerPassSortCapture) {
  const auto& entries = golden_entries();
  ASSERT_EQ(entries.size(), 42u);
  for (const GoldenEntry& entry : entries) {
    SCOPED_TRACE(std::string(entry.method) + " " + entry.instance +
                 " seed=" + std::to_string(entry.seed));
    const core::Problem problem = golden_instance(entry.instance, entry.seed);
    support::Rng rng(entry.seed);
    const auto mapping = heuristics::heuristic_by_name(entry.method)->run(problem, rng);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(core::period(problem, *mapping), entry.period);
    ASSERT_EQ(mapping->task_count(), entry.assignment.size());
    for (TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(mapping->machine_of(i), entry.assignment[i]) << "assignment[" << i << "]";
    }
  }
}

TEST(BinarySearchGolden, HandBuiltInstancesBreakWhatTheyClaim) {
  // The instances must keep exercising the paths they were built for.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const core::Problem mixed = golden_instance("mixed-rows", seed);
    EXPECT_FALSE(mixed.platform.has_type_uniform_times(mixed.app)) << seed;
    const core::Problem ties = golden_instance("rank-ties", seed);
    EXPECT_TRUE(ties.platform.has_type_uniform_times(ties.app)) << seed;
    EXPECT_EQ(ties.platform.time(0, 0), ties.platform.time(0, 4));
    EXPECT_LT(ties.platform.time(0, 0), ties.platform.time(0, 1));
  }
}

}  // namespace
}  // namespace mf
