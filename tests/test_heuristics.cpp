// Tests for the six paper heuristics: validity of the produced mappings,
// determinism, feasibility limits, binary-search engine behaviour and
// qualitative ordering properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "core/evaluation.hpp"
#include "exp/scenario.hpp"
#include "heuristics/assignment_state.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h1_random.hpp"
#include "heuristics/h4_family.hpp"
#include "heuristics/heuristic.hpp"
#include "test_helpers.hpp"

namespace mf::heuristics {
namespace {

using core::Mapping;
using core::MappingRule;
using core::Problem;

/// The period the binary-search engine's own load accounting gives
/// `mapping`: machine loads summed in backward order, as a greedy pass sums
/// them. core::period sums in task-index order, so it can differ in the
/// last bits and is not the bound a pass certifies.
double engine_period(const Problem& problem, const Mapping& mapping) {
  AssignmentState state(problem);
  for (core::TaskIndex i : problem.app.backward_order()) state.assign(i, mapping.machine_of(i));
  return state.current_period();
}

TEST(Registry, HasAllSixInPaperOrder) {
  const auto all = all_heuristics();
  ASSERT_EQ(all.size(), 6u);
  const std::vector<std::string> expected{"H1", "H2", "H3", "H4", "H4w", "H4f"};
  for (std::size_t k = 0; k < all.size(); ++k) EXPECT_EQ(all[k]->name(), expected[k]);
}

TEST(Registry, LookupByNameAndUnknown) {
  EXPECT_EQ(heuristic_by_name("H4w")->name(), "H4w");
  try {
    (void)heuristic_by_name("H5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("H5"), std::string::npos);
    EXPECT_NE(message.find("H1, H2, H3, H4, H4w, H4f"), std::string::npos)
        << "the error should list the available names: " << message;
  }
}

TEST(Heuristics, InfeasibleWhenMoreTypesThanMachines) {
  const Problem problem = test::uniform_problem({0, 1, 2}, 2);
  support::Rng rng(1);
  for (const auto& h : all_heuristics()) {
    EXPECT_FALSE(h->run(problem, rng).has_value()) << h->name();
  }
}

TEST(Heuristics, SingleTaskSingleMachine) {
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.1);
  support::Rng rng(1);
  for (const auto& h : all_heuristics()) {
    const auto mapping = h->run(problem, rng);
    ASSERT_TRUE(mapping.has_value()) << h->name();
    EXPECT_EQ(mapping->machine_of(0), 0u);
  }
}

TEST(Heuristics, DeterministicExceptH1) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 6;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 7);
  for (const auto& h : all_heuristics()) {
    if (h->name() == "H1") continue;
    support::Rng rng1(1), rng2(999);
    EXPECT_EQ(h->run(problem, rng1), h->run(problem, rng2))
        << h->name() << " must ignore the RNG";
  }
}

TEST(Heuristics, H1VariesWithSeed) {
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 10;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 7);
  H1Random h1;
  support::Rng rng1(1), rng2(2);
  const auto a = h1.run(problem, rng1);
  const auto b = h1.run(problem, rng2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b) << "different seeds should (almost surely) differ";
  // Same seed reproduces exactly.
  support::Rng rng1_again(1);
  EXPECT_EQ(*h1.run(problem, rng1_again), *a);
}

TEST(BinarySearchEngine, RespectsPeriodBound) {
  const Problem problem = test::tiny_chain_problem();
  H2BinarySearchRank h2;
  support::Rng rng(1);
  const auto mapping = h2.run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  const double achieved = engine_period(problem, *mapping);
  EXPECT_LE(achieved, core::period_upper_bound(problem));
  // The mapping certifies its own period: one pass at that bound replays
  // the final pass's greedy choices and returns the identical mapping.
  RankSelector selector;
  selector.prepare(problem);
  EXPECT_EQ(assign_within_period(problem, selector, achieved), mapping);
}

TEST(BinarySearchEngine, AssignWithinTightBoundFails) {
  const Problem problem = test::tiny_chain_problem();
  class FirstFitSelector final : public MachineSelector {
   public:
    void prepare(const core::Problem& p) override {
      order_.resize(p.machine_count());
      for (std::size_t u = 0; u < order_.size(); ++u) order_[u] = u;
    }
    std::span<const core::MachineIndex> order_machines(core::TaskIndex) const override {
      return order_;
    }

   private:
    std::vector<core::MachineIndex> order_;
  };
  FirstFitSelector selector;
  selector.prepare(problem);
  EXPECT_FALSE(assign_within_period(problem, selector, 1.0).has_value());
  EXPECT_TRUE(
      assign_within_period(problem, selector, core::period_upper_bound(problem)).has_value());
}

TEST(BinarySearchEngine, SelectorsOrderEveryMachineOnce) {
  const Problem problem = test::tiny_chain_problem();
  RankSelector rank;
  HeterogeneitySelector heterogeneity;
  rank.prepare(problem);
  heterogeneity.prepare(problem);
  const std::vector<const MachineSelector*> selectors{&rank, &heterogeneity};
  for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (const MachineSelector* selector : selectors) {
      const auto order = selector->order_machines(i);
      std::vector<core::MachineIndex> sorted(order.begin(), order.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, (std::vector<core::MachineIndex>{0, 1, 2})) << "task " << i;
    }
  }
  // Tasks 0 and 2 share a w row, hence one H2 order: rank 0 on M0, then
  // M1 and M2 tie at rank 1 and M1's smaller w (200 < 300) goes first.
  // Task 1 ranks 0 on M1 and M2 (w 120 beats 250) and 1 on M0.
  const auto first = rank.order_machines(0);
  EXPECT_EQ(std::vector<core::MachineIndex>(first.begin(), first.end()),
            (std::vector<core::MachineIndex>{0, 1, 2}));
  EXPECT_EQ(rank.order_machines(2).data(), first.data());
  const auto middle = rank.order_machines(1);
  EXPECT_EQ(std::vector<core::MachineIndex>(middle.begin(), middle.end()),
            (std::vector<core::MachineIndex>{1, 2, 0}));
}

TEST(H4Family, PrefersFastMachineWhenFailuresEqual) {
  // One task, two machines: M0 slow, M1 fast; identical failures.
  core::Application app = core::Application::linear_chain({0});
  core::Platform platform = test::make_platform({{500, 100}}, {{0.01, 0.01}});
  const Problem problem{std::move(app), std::move(platform)};
  support::Rng rng(1);
  for (const std::string name : {"H4", "H4w"}) {
    const auto mapping = heuristic_by_name(name)->run(problem, rng);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(mapping->machine_of(0), 1u) << name;
  }
}

TEST(H4Family, H4fPrefersReliableMachine) {
  // M0 fast but unreliable, M1 slow but safe: H4f must pick M1.
  core::Application app = core::Application::linear_chain({0});
  core::Platform platform = test::make_platform({{100, 500}}, {{0.2, 0.001}});
  const Problem problem{std::move(app), std::move(platform)};
  support::Rng rng(1);
  const auto mapping = H4fReliableMachine().run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->machine_of(0), 1u);
  // ...while H4w chases speed.
  const auto fast = H4wFastestMachine().run(problem, rng);
  EXPECT_EQ(fast->machine_of(0), 0u);
}

TEST(H4Family, RawRatePolicyStillProducesValidMappings) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 3);
  support::Rng rng(1);
  const H4BestPerformance raw(FailureFactor::kRawRate);
  const auto mapping = raw.run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_TRUE(
      mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
}

struct SweepCase {
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
};

class HeuristicValidityTest
    : public ::testing::TestWithParam<std::tuple<std::string, SweepCase, std::uint64_t>> {};

TEST_P(HeuristicValidityTest, ProducesValidSpecializedMapping) {
  const auto& [name, dims, seed] = GetParam();
  exp::Scenario scenario;
  scenario.tasks = dims.tasks;
  scenario.machines = dims.machines;
  scenario.types = dims.types;
  const Problem problem = exp::generate(scenario, seed);

  support::Rng rng(seed);
  const auto mapping = heuristic_by_name(name)->run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_TRUE(mapping->is_complete(problem.machine_count()));
  EXPECT_TRUE(
      mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
  const double p = core::period(problem, *mapping);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, core::period_upper_bound(problem) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristicsAllShapes, HeuristicValidityTest,
    ::testing::Combine(::testing::Values("H1", "H2", "H3", "H4", "H4w", "H4f"),
                       ::testing::Values(SweepCase{5, 5, 2}, SweepCase{12, 4, 4},
                                         SweepCase{30, 10, 5}, SweepCase{60, 8, 2},
                                         SweepCase{9, 9, 9}),
                       ::testing::Values(1u, 2u, 3u)));

/// Qualitative property from Section 7.1: informed heuristics should beat
/// the random baseline H1 on average (not necessarily per instance).
TEST(Heuristics, H4wBeatsH1OnAverage) {
  exp::Scenario scenario;
  scenario.tasks = 40;
  scenario.machines = 12;
  scenario.types = 4;
  double h1_total = 0.0;
  double h4w_total = 0.0;
  const auto h1 = heuristic_by_name("H1");
  const auto h4w = heuristic_by_name("H4w");
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    h1_total += core::period(problem, *h1->run(problem, rng));
    h4w_total += core::period(problem, *h4w->run(problem, rng));
  }
  EXPECT_LT(h4w_total, h1_total * 0.8) << "H4w should clearly dominate the random baseline";
}

/// Binary-search heuristics return a mapping whose period certifies the
/// final search interval. The final pass at bound hi chose every machine
/// with its load still within that machine's final load, so at most the
/// period, and rejected every other machine it tried for exceeding hi or
/// for specialization. Every bound in [period, hi] therefore replays the
/// same choices, and one pass at the achieved period returns the identical
/// mapping. "Period" here is the engine's own accounting (engine_period).
class BinarySearchConsistencyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinarySearchConsistencyTest, H2PeriodIsAchievedByItsOwnMapping) {
  exp::Scenario scenario;
  scenario.tasks = 25;
  scenario.machines = 8;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, GetParam());
  support::Rng rng(1);
  const auto h2 = heuristic_by_name("H2")->run(problem, rng);
  const auto h3 = heuristic_by_name("H3")->run(problem, rng);
  ASSERT_TRUE(h2.has_value());
  ASSERT_TRUE(h3.has_value());
  EXPECT_TRUE(
      h2->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
  EXPECT_TRUE(
      h3->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));

  RankSelector rank;
  rank.prepare(problem);
  const double h2_period = engine_period(problem, *h2);
  EXPECT_NEAR(h2_period, core::period(problem, *h2), 1e-9 * h2_period);
  EXPECT_EQ(assign_within_period(problem, rank, h2_period), h2);
  HeterogeneitySelector heterogeneity;
  heterogeneity.prepare(problem);
  const double h3_period = engine_period(problem, *h3);
  EXPECT_NEAR(h3_period, core::period(problem, *h3), 1e-9 * h3_period);
  EXPECT_EQ(assign_within_period(problem, heterogeneity, h3_period), h3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinarySearchConsistencyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mf::heuristics
