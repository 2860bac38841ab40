// Microbenchmarks for the exact stack: Hungarian, bottleneck assignment,
// the one-to-one solver and the combinatorial branch-and-bound — showing
// where each stops scaling (the paper's CPLEX gave up past ~15 tasks; the
// same wall exists here for the branch-and-bound, just further out).
#include <benchmark/benchmark.h>

#include "core/evaluation.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exact/hungarian.hpp"
#include "exact/one_to_one.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "support/rng.hpp"

namespace {

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mf::support::Rng rng(3);
  mf::support::Matrix cost(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) cost.at(r, c) = rng.uniform(0.0, 1000.0);
  }
  for (auto _ : state) {
    const auto result = mf::exact::solve_assignment(cost);
    benchmark::DoNotOptimize(result.total_cost);
  }
}
BENCHMARK(BM_Hungarian)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_BottleneckAssignment(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mf::support::Rng rng(4);
  mf::support::Matrix cost(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) cost.at(r, c) = rng.uniform(0.0, 1000.0);
  }
  for (auto _ : state) {
    const auto result = mf::exact::solve_bottleneck_assignment(cost);
    benchmark::DoNotOptimize(result.bottleneck_cost);
  }
}
BENCHMARK(BM_BottleneckAssignment)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_OptimalOneToOne_Fig9Size(benchmark::State& state) {
  mf::exp::Scenario scenario;
  scenario.tasks = 100;
  scenario.machines = 100;
  scenario.types = 20;
  scenario.failure_attachment = mf::exp::FailureAttachment::kTaskOnly;
  const mf::core::Problem problem = mf::exp::generate(scenario, 5);
  for (auto _ : state) {
    const auto solution = mf::exact::optimal_one_to_one_task_failures(problem);
    benchmark::DoNotOptimize(solution.period);
  }
}
BENCHMARK(BM_OptimalOneToOne_Fig9Size);

void BM_SpecializedBnB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  mf::exp::Scenario scenario;
  scenario.tasks = n;
  scenario.machines = m;
  scenario.types = std::min<std::size_t>(m == 5 ? 2 : 4, m);
  const mf::core::Problem problem = mf::exp::generate(scenario, 6);
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const auto result = mf::exact::solve_specialized_optimal(problem);
    nodes = result.nodes;
    benchmark::DoNotOptimize(result.period);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SpecializedBnB)
    ->Args({8, 5})
    ->Args({12, 5})
    ->Args({16, 5})
    ->Args({10, 9})
    ->Args({14, 9})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
