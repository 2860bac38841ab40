// Tests for the content-addressed result cache: key canonicalization, hit
// determinism (a cached result is the result the solver would recompute),
// the off/read/read-write policies, LRU eviction, and the warm-sweep
// guarantee — a repeated figure sweep with a read-write cache re-solves
// zero instances.
#include <gtest/gtest.h>

#include <memory>

#include "core/digest.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "solve/cache.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "solve/solver.hpp"

namespace mf::solve {
namespace {

core::Problem small_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

TEST(CacheKey, CanonicalizesLocalSearchSpelling) {
  const core::Digest d = core::digest(small_problem());
  SolveParams by_param;
  by_param.local_search = true;
  SolveParams by_suffix;
  // Both spellings resolve to the effective id "H2+ls" and must share a key.
  EXPECT_EQ(make_cache_key(d, effective_solver_id("H2", by_param), by_param),
            make_cache_key(d, effective_solver_id("H2+ls", by_suffix), by_suffix));
}

TEST(CacheKey, IgnoresRefinementOptionsWithoutRefinementStage) {
  const core::Digest d = core::digest(small_problem());
  SolveParams a;
  SolveParams b;
  b.refinement.max_passes = 3;
  b.refinement.allow_swaps = false;
  EXPECT_EQ(make_cache_key(d, "H2", a), make_cache_key(d, "H2", b))
      << "refinement options are dead parameters without a +ls stage";
  EXPECT_NE(make_cache_key(d, "H2+ls", a), make_cache_key(d, "H2+ls", b));
}

TEST(CacheKey, DistinguishesUnsetBudgetFromZeroBudget) {
  const core::Digest d = core::digest(small_problem());
  SolveParams unset;
  SolveParams zero;
  zero.max_nodes = 0;  // 0 means unlimited, but it is still a different request
  EXPECT_NE(make_cache_key(d, "bnb", unset), make_cache_key(d, "bnb", zero));
}

TEST(CacheKey, ScenarioProvenanceIsPartOfTheKey) {
  // Two failure regimes could in principle produce the same effective
  // matrices; their results must still never share a cache entry, and sweep
  // logs must be able to attribute every hit to its regime.
  const core::Digest d = core::digest(small_problem());
  SolveParams direct;
  SolveParams iid;
  iid.scenario = "iid";
  SolveParams correlated;
  correlated.scenario = "correlated";
  EXPECT_NE(make_cache_key(d, "H2", direct), make_cache_key(d, "H2", iid));
  EXPECT_NE(make_cache_key(d, "H2", iid), make_cache_key(d, "H2", correlated));
  EXPECT_EQ(make_cache_key(d, "H2", iid), make_cache_key(d, "H2", iid));
}

TEST(Cache, ScenarioLabelSeparatesEntriesAndSurfacesInDiagnostics) {
  ResultCache cache(64);
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  const Solver& h2 = *SolverRegistry::instance().find("H2");
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  params.scenario = "iid";
  const SolveResult first = cached_solve(h2, *problem, params, cache);
  EXPECT_EQ(first.diagnostics.scenario, "iid");
  EXPECT_FALSE(first.diagnostics.cache_hit);
  // Same problem, same solver, different provenance: a miss, not a hit.
  params.scenario = "downtime";
  const SolveResult other = cached_solve(h2, *problem, params, cache);
  EXPECT_FALSE(other.diagnostics.cache_hit);
  EXPECT_EQ(other.diagnostics.scenario, "downtime");
  // Same provenance again: a hit carrying its regime in the diagnostics.
  params.scenario = "iid";
  const SolveResult hit = cached_solve(h2, *problem, params, cache);
  EXPECT_TRUE(hit.diagnostics.cache_hit);
  EXPECT_EQ(hit.diagnostics.scenario, "iid");
  EXPECT_EQ(hit.period, first.period);
}

TEST(Cache, HitReturnsTheResultTheSolverWouldRecompute) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  const auto solver = SolverRegistry::instance().resolve("H1");
  SolveParams params;
  params.seed = 99;
  params.cache = CachePolicy::kReadWrite;

  const SolveResult fresh = cached_solve(*solver, problem, params, cache);
  EXPECT_FALSE(fresh.diagnostics.cache_hit);
  const SolveResult cached = cached_solve(*solver, problem, params, cache);
  EXPECT_TRUE(cached.diagnostics.cache_hit);

  EXPECT_EQ(cached.status, fresh.status);
  EXPECT_EQ(cached.mapping, fresh.mapping);
  EXPECT_DOUBLE_EQ(cached.period, fresh.period);
  EXPECT_EQ(cached.diagnostics.solver_id, fresh.diagnostics.solver_id);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(Cache, DifferentSeedsAreDifferentEntries) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  const auto solver = SolverRegistry::instance().resolve("H1");
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  params.seed = 1;
  (void)cached_solve(*solver, problem, params, cache);
  params.seed = 2;
  const SolveResult other = cached_solve(*solver, problem, params, cache);
  EXPECT_FALSE(other.diagnostics.cache_hit);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(Cache, ReadPolicyNeverStores) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  const auto solver = SolverRegistry::instance().resolve("H2");
  SolveParams params;
  params.cache = CachePolicy::kRead;
  (void)cached_solve(*solver, problem, params, cache);
  (void)cached_solve(*solver, problem, params, cache);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 0u);

  // But kRead serves entries someone else stored.
  params.cache = CachePolicy::kReadWrite;
  (void)cached_solve(*solver, problem, params, cache);
  params.cache = CachePolicy::kRead;
  EXPECT_TRUE(cached_solve(*solver, problem, params, cache).diagnostics.cache_hit);
}

TEST(Cache, OffPolicyNeverTouchesTheCache) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  const auto solver = SolverRegistry::instance().resolve("H2");
  SolveParams params;  // cache = kOff
  (void)cached_solve(*solver, problem, params, cache);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
}

TEST(Cache, BoundedByCapacityWithLruEviction) {
  ResultCache cache(ResultCache::kShardCount);  // one entry per shard
  const auto solver = SolverRegistry::instance().resolve("H2");
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    (void)cached_solve(*solver, small_problem(seed), params, cache);
  }
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.size, cache.capacity());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.size + stats.evictions, stats.insertions);
}

TEST(Cache, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache(64);
  const auto solver = SolverRegistry::instance().resolve("H2");
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  (void)cached_solve(*solver, small_problem(), params, cache);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_FALSE(cached_solve(*solver, small_problem(), params, cache).diagnostics.cache_hit);
}

TEST(Cache, SolveAllPopulatesAndServesAnIsolatedCache) {
  ResultCache cache(1024);
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<SolveRequest> requests;
  for (const char* id : {"H1", "H2", "H4w", "oto", "bnb"}) {
    SolveRequest request;
    request.problem = problem;
    request.solver_id = id;
    request.params.seed = 5;
    request.params.cache = CachePolicy::kReadWrite;
    requests.push_back(std::move(request));
  }

  support::ThreadPool pool(4);
  const auto cold = SolveService(&pool, &cache).solve_all(requests);
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto warm = SolveService(&pool, &cache).solve_all(requests);
  EXPECT_EQ(cache.stats().hits, requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(warm[i].diagnostics.cache_hit) << i;
    EXPECT_EQ(warm[i].status, cold[i].status) << i;
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << i;
    EXPECT_DOUBLE_EQ(warm[i].period, cold[i].period) << i;
  }
}

/// The acceptance-criterion scenario: a warm-cache repeat of a figure sweep
/// re-solves zero instances and produces identical output. Uses the global
/// cache — exactly what `mfsched --figure fig06 --cache rw --repeat 2`
/// exercises — so hits are measured as deltas.
TEST(Cache, WarmSweepRepeatResolvesNothing) {
  exp::SweepSpec spec = exp::scaled_down(exp::figure6_spec(), 10);  // 3 trials/point
  spec.values = {10, 20, 30};

  exp::SweepOptions options;
  options.cache = solve::CachePolicy::kReadWrite;
  support::ThreadPool pool(4);

  const CacheStats before = ResultCache::global().stats();
  const exp::SweepResult cold = exp::run_sweep(spec, options, &pool);
  const CacheStats after_cold = ResultCache::global().stats();
  const exp::SweepResult warm = exp::run_sweep(spec, options, &pool);
  const CacheStats after_warm = ResultCache::global().stats();

  const std::size_t solves =
      spec.values.size() * spec.trials * spec.methods.size();
  EXPECT_EQ(after_cold.misses - before.misses, solves) << "cold run solves everything";
  EXPECT_EQ(after_warm.misses - after_cold.misses, 0u) << "warm run re-solves nothing";
  EXPECT_EQ(after_warm.hits - after_cold.hits, solves);

  EXPECT_EQ(warm.to_table().to_string(), cold.to_table().to_string());
  for (std::size_t p = 0; p < cold.points.size(); ++p) {
    for (const auto& [name, summary] : cold.points[p].period_by_method) {
      EXPECT_EQ(summary.mean, warm.points[p].period_by_method.at(name).mean) << name;
    }
  }
}

TEST(Cache, SweepThroughAnIsolatedBackendLeavesTheGlobalCacheAlone) {
  // run_sweep solves through a SolveService over `options.backend`: every
  // lookup and store lands there, none in the process-wide cache.
  exp::SweepSpec spec = exp::scaled_down(exp::figure6_spec(), 10);  // 3 trials/point
  spec.values = {10, 20};
  ResultCache isolated(1024);
  exp::SweepOptions options;
  options.cache = CachePolicy::kReadWrite;
  options.backend = &isolated;
  support::ThreadPool pool(4);

  const CacheStats global_before = ResultCache::global().stats();
  const exp::SweepResult cold = exp::run_sweep(spec, options, &pool);
  const exp::SweepResult warm = exp::run_sweep(spec, options, &pool);
  const CacheStats global_after = ResultCache::global().stats();

  const std::size_t solves = spec.values.size() * spec.trials * spec.methods.size();
  const CacheStats stats = isolated.stats();
  EXPECT_EQ(stats.misses, solves) << "cold run solves everything";
  EXPECT_EQ(stats.hits, solves) << "warm run re-solves nothing";
  EXPECT_EQ(stats.size, solves);
  EXPECT_EQ(global_after.hits, global_before.hits);
  EXPECT_EQ(global_after.misses, global_before.misses);
  EXPECT_EQ(global_after.insertions, global_before.insertions);
  EXPECT_EQ(warm.to_table().to_string(), cold.to_table().to_string());
}

}  // namespace
}  // namespace mf::solve
