// Pinned mappings for the binary-search heuristics H2 and H3
// (tests/golden_binary_search.inc, captured from the implementation that
// re-sorted every machine for every task on every bisection pass; the
// entries after the first 42 were captured from the bisection that ran one
// pass for every midpoint). The engine now builds each selector's machine
// preference once per problem and skips a pass whose outcome an earlier
// pass already decided; it must reproduce every mapping byte for byte and
// every period bit for bit. The instances cover:
//
//   * the first and the last point of Figures 5, 7 and 9 (the shapes the
//     figure sweeps spend their H2 time on), several seeds each;
//   * Figure 9's shape with every row distinct, so H2 keeps one row class
//     per task;
//   * failure-free chains with small integer w, where candidate loads land
//     exactly on the integer midpoints (the edges of the bound intervals
//     the bisection reuses outcomes over);
//   * rows that break type-uniformity: same-type tasks with different w
//     rows, so H2's per-row-class orders must fall back to one class per
//     deviating task;
//   * equal rank with different w on every machine (H2's w tie-break) and
//     equal w across machines (the index tie-break);
//   * random in-trees, where joins make downstream product counts differ
//     from the chain's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/heuristic.hpp"
#include "support/matrix.hpp"

namespace mf {
namespace {

using core::MachineIndex;
using core::TaskIndex;

/// One point of a figure sweep (`value` of its variable), drawn by the
/// paper's iid generator.
core::Problem figure_point(const exp::SweepSpec& spec, std::size_t value, std::uint64_t seed) {
  return exp::generate(exp::scenario_for(spec, value), seed);
}

core::Problem figure_first_point(const exp::SweepSpec& spec, std::uint64_t seed) {
  return figure_point(spec, spec.values.front(), seed);
}

core::Problem figure_last_point(const exp::SweepSpec& spec, std::uint64_t seed) {
  return figure_point(spec, spec.values.back(), seed);
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

/// Failure-free instances with small integer w: every x is exactly 1 and
/// every load an integer, so candidate loads land exactly on the integer
/// midpoints the bisection tries (a load equal to the bound fits).
exp::Scenario integer_scenario(std::size_t tasks, std::size_t machines, std::size_t types) {
  exp::Scenario scenario;
  scenario.tasks = tasks;
  scenario.machines = machines;
  scenario.types = types;
  scenario.time_min_ms = 1.0;
  scenario.time_max_ms = 9.0;
  scenario.failure_min = 0.0;
  scenario.failure_max = 0.0;
  return scenario;
}

core::Problem golden_instance(const std::string& name, std::uint64_t seed) {
  if (name == "fig05") return figure_first_point(exp::figure5_spec(), seed);
  if (name == "fig07") return figure_first_point(exp::figure7_spec(), seed);
  if (name == "fig09") return figure_first_point(exp::figure9_spec(), seed);
  if (name == "fig05-last") return figure_last_point(exp::figure5_spec(), seed);
  if (name == "fig07-last") return figure_last_point(exp::figure7_spec(), seed);
  if (name == "fig09-last") return figure_last_point(exp::figure9_spec(), seed);
  if (name == "fig09-rows") {
    // Figure 9's first shape with every row made distinct: H2 keeps one
    // row class per task (n = m = 100 classes).
    return with_times(figure_first_point(exp::figure9_spec(), seed),
                      [](TaskIndex i, MachineIndex u, double w) {
                        return w + static_cast<double>((i * 7 + u * 3) % 11 + i);
                      });
  }
  if (name == "int-chain") return exp::generate(integer_scenario(18, 6, 3), seed);
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
  ASSERT_EQ(entries.size(), 90u);
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
    const core::Problem rows = golden_instance("fig09-rows", seed);
    for (TaskIndex i = 0; i < rows.task_count(); ++i) {
      for (TaskIndex j = 0; j < i; ++j) {
        EXPECT_FALSE(std::ranges::equal(rows.platform.time_row(i), rows.platform.time_row(j)))
            << "fig09-rows seed " << seed << ": rows " << j << " and " << i;
      }
    }
    const core::Problem ints = golden_instance("int-chain", seed);
    for (TaskIndex i = 0; i < ints.task_count(); ++i) {
      for (MachineIndex u = 0; u < ints.machine_count(); ++u) {
        EXPECT_EQ(ints.platform.time(i, u), std::floor(ints.platform.time(i, u)));
        EXPECT_EQ(ints.platform.failure(i, u), 0.0);
      }
    }
  }
}

/// Algorithms 2-3's outer loop written plainly over the public single pass:
/// one greedy pass for every integer midpoint, none skipped.
std::optional<core::Mapping> reference_bisection(const core::Problem& problem,
                                                 heuristics::MachineSelector& selector) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);
  std::int64_t lo = 0;
  auto hi = static_cast<std::int64_t>(std::ceil(core::period_upper_bound(problem)));
  auto best = heuristics::assign_within_period(problem, selector, static_cast<double>(hi));
  if (!best.has_value()) return std::nullopt;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    auto attempt = heuristics::assign_within_period(problem, selector, static_cast<double>(mid));
    if (attempt.has_value()) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return best;
}

TEST(BinarySearchOracle, H2AndH3MatchPlainBisection) {
  std::size_t instances = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const std::size_t machines = 2 + seed % 7;
    const std::size_t tasks = machines + seed % 13;
    const std::size_t types = 1 + seed % machines;
    exp::Scenario scenario;
    scenario.tasks = tasks;
    scenario.machines = machines;
    scenario.types = types;
    const exp::Scenario integer = integer_scenario(tasks, machines, types);
    const core::Problem problems[] = {
        exp::generate(scenario, seed),
        exp::generate_in_tree(scenario, 0.4, seed),
        seed % 2 == 0 ? exp::generate(integer, seed) : exp::generate_in_tree(integer, 0.4, seed),
    };
    for (const core::Problem& problem : problems) {
      ++instances;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(tasks) +
                   " m=" + std::to_string(machines) + " p=" + std::to_string(types) +
                   " instance=" + std::to_string(instances));
      heuristics::RankSelector rank;
      heuristics::HeterogeneitySelector heterogeneity;
      const std::pair<const char*, heuristics::MachineSelector*> methods[] = {
          {"H2", &rank}, {"H3", &heterogeneity}};
      for (const auto& [method, selector] : methods) {
        const auto expected = reference_bisection(problem, *selector);
        support::Rng rng(seed);
        const auto actual = heuristics::heuristic_by_name(method)->run(problem, rng);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << method;
        if (!expected.has_value()) continue;
        EXPECT_EQ(actual->assignment(), expected->assignment()) << method;
        EXPECT_EQ(core::period(problem, *actual), core::period(problem, *expected)) << method;
      }
    }
  }
  EXPECT_GE(instances, 200u);
}

}  // namespace
}  // namespace mf
