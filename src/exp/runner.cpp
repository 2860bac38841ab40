#include "exp/runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/evaluation.hpp"
#include "exp/scenario_registry.hpp"
#include "solve/service.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mf::exp {

std::string to_string(SweepVariable variable) {
  switch (variable) {
    case SweepVariable::kTasks:
      return "number of tasks";
    case SweepVariable::kTypes:
      return "number of types";
    case SweepVariable::kMachines:
      return "number of machines";
  }
  return "?";
}

std::size_t ShardSpec::owner(std::size_t point_index, std::size_t trial,
                             std::size_t count) noexcept {
  if (count <= 1) return 0;
  return static_cast<std::size_t>(
      support::mix_seed(static_cast<std::uint64_t>(point_index),
                        static_cast<std::uint64_t>(trial)) %
      static_cast<std::uint64_t>(count));
}

Scenario scenario_for(const SweepSpec& spec, std::size_t value) {
  Scenario scenario = spec.base;
  switch (spec.variable) {
    case SweepVariable::kTasks:
      scenario.tasks = value;
      break;
    case SweepVariable::kTypes:
      scenario.types = value;
      break;
    case SweepVariable::kMachines:
      scenario.machines = value;
      break;
  }
  return scenario;
}

namespace {

/// The content-addressed seed hierarchy: a trial's instance seed depends
/// only on (base_seed, point, trial), and each (trial, method) pair derives
/// its solver seed from the trial seed and a *stable* hash of the method
/// name (support::fnv1a64 — std::hash would differ across standard
/// libraries), so adding or reordering methods never perturbs another
/// column, and no seed depends on batch composition or shard assignment.
std::uint64_t trial_seed(const SweepSpec& spec, std::size_t point_index, std::size_t trial) {
  return support::mix_seed(spec.base_seed, (point_index << 20) | trial);
}

std::uint64_t method_seed(std::uint64_t trial_seed, const Method& method) {
  return support::mix_seed(trial_seed, support::fnv1a64(method.name));
}

/// Evaluates the listed trials of one point through the batch engine: one
/// SolveRequest per (trial, method), all methods of a trial sharing one
/// generated instance — the paired design. Returns one outcome per listed
/// trial, in listing order; a trial succeeds only when every method counts
/// its result (the paper's common-success protocol).
std::vector<TrialOutcome> evaluate_trials(const SweepSpec& spec, const Scenario& scenario,
                                          std::size_t point_index,
                                          const std::vector<std::size_t>& trials,
                                          const SweepOptions& options,
                                          support::ThreadPool* pool) {
  const std::size_t method_count = spec.methods.size();
  const std::shared_ptr<const ScenarioGenerator> generator =
      ScenarioRegistry::instance().resolve(spec.scenario_id);

  // Instance generation is deterministic in (scenario, seed), so it fans
  // out over the pool like the solves do — a serial generation prefix
  // would cap the speedup of sweeps with cheap solvers (Amdahl).
  std::vector<Instance> instances(trials.size());
  const auto generate_trial = [&](std::size_t t) {
    instances[t] = generator->generate(scenario, trial_seed(spec, point_index, trials[t]));
  };
  if (pool != nullptr) {
    support::parallel_for(*pool, trials.size(), generate_trial);
  } else {
    for (std::size_t t = 0; t < trials.size(); ++t) generate_trial(t);
  }

  std::vector<solve::SolveRequest> requests;
  requests.reserve(trials.size() * method_count);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const std::size_t trial = trials[t];
    const std::uint64_t seed = trial_seed(spec, point_index, trial);
    for (const Method& method : spec.methods) {
      solve::SolveRequest request;
      // Solvers consume the model's effective problem — the heuristics'
      // binary-search ceilings, the branch-and-bound and the evaluator all
      // see the effective rates/times, never the raw base matrices.
      request.problem = instances[t].effective;
      request.solver_id = method.solver_id;
      request.params = method.params;
      request.params.seed = method_seed(seed, method);
      request.params.cache = options.cache;
      request.params.scenario = spec.scenario_id;
      request.derive_stream_seed = false;  // seeds above are already final
      requests.push_back(std::move(request));
    }
  }

  // The executor seam: a sweep does not care where solving happens. The
  // default is the in-process batch engine; `options.executor` reroutes the
  // same requests (content-addressed seeds and all) to, e.g., a scheduler
  // daemon — the outcomes, and therefore the table, are bit-identical.
  solve::SolveService local(pool, options.backend);
  solve::SolveExecutor& executor =
      options.executor != nullptr ? static_cast<solve::SolveExecutor&>(*options.executor)
                                  : local;
  const std::vector<solve::SolveResult> results = executor.solve_all(requests);

  std::vector<TrialOutcome> outcomes(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Instance& instance = instances[t];
    TrialOutcome& outcome = outcomes[t];
    outcome.success = true;
    outcome.periods.reserve(method_count);
    for (std::size_t k = 0; k < method_count; ++k) {
      const solve::SolveResult& result = results[t * method_count + k];
      if (!spec.methods[k].counts(result)) {
        outcome.success = false;
        outcome.periods.clear();
        break;
      }
      // The solver reports the effective-problem period, which for
      // time-dependent models is the conservative worst-window value; the
      // figure records the model's analytic period of the mapping instead.
      outcome.periods.push_back(
          instance.model_is_identity()
              ? result.period
              : instance.model->period(*instance.problem, *instance.effective,
                                       *result.mapping));
    }
  }
  return outcomes;
}

std::vector<std::size_t> iota_trials(std::size_t from, std::size_t to) {
  std::vector<std::size_t> trials(to - from);
  for (std::size_t t = from; t < to; ++t) trials[t - from] = t;
  return trials;
}

/// Aggregates trial outcomes indexed [0, drawn) into a PointResult: the
/// first `spec.trials` successes in trial order feed the per-method stats.
/// Shared verbatim by the direct path and merge(), which is what makes a
/// merged sharded sweep bit-identical to the unsharded run.
PointResult aggregate_point(const SweepSpec& spec, std::size_t sweep_value,
                            const std::vector<TrialOutcome>& outcomes, std::size_t drawn) {
  PointResult point;
  point.sweep_value = sweep_value;
  std::vector<support::RunningStats> stats(spec.methods.size());
  std::size_t kept = 0;
  for (std::size_t t = 0; t < drawn && kept < spec.trials; ++t) {
    if (!outcomes[t].success) continue;
    ++kept;
    for (std::size_t k = 0; k < spec.methods.size(); ++k) {
      stats[k].add(outcomes[t].periods[k]);
    }
  }
  point.attempts = drawn;
  point.successes = kept;
  for (std::size_t k = 0; k < spec.methods.size(); ++k) {
    point.period_by_method[spec.methods[k].name] = stats[k].summary();
  }
  return point;
}

void validate_spec(const SweepSpec& spec) {
  MF_REQUIRE(!spec.methods.empty(), "sweep needs at least one method");
  MF_REQUIRE(!spec.values.empty(), "sweep needs at least one point");
  MF_REQUIRE(spec.max_trials >= spec.trials, "max_trials must cover trials");
  // Unknown scenario ids fail the whole sweep up front (with the list of
  // registered ids) instead of mid-flight in a pool thread.
  (void)ScenarioRegistry::instance().resolve(spec.scenario_id);
}

/// One complete (unsharded) point: draw `trials` instances, then — while
/// short of `trials` common successes — draw exactly as many extra
/// instances as successes are missing, up to max_trials. The rounds draw
/// the same trial sequence the paper's one-at-a-time protocol draws
/// (a round of size `needed` can at most reach the target on its last
/// trial), so `attempts` matches it exactly.
PointResult run_point(const SweepSpec& spec, std::size_t point_index, std::size_t value,
                      const SweepOptions& options, support::ThreadPool* pool) {
  const Scenario scenario = scenario_for(spec, value);
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(spec.trials);
  std::size_t successes = 0;
  while (true) {
    const std::size_t drawn = outcomes.size();
    std::size_t round = 0;
    if (drawn == 0) {
      round = spec.trials;
    } else if (successes < spec.trials && drawn < spec.max_trials) {
      round = std::min(spec.trials - successes, spec.max_trials - drawn);
    }
    if (round == 0) break;
    std::vector<TrialOutcome> fresh = evaluate_trials(
        spec, scenario, point_index, iota_trials(drawn, drawn + round), options, pool);
    for (TrialOutcome& outcome : fresh) {
      successes += outcome.success ? 1 : 0;
      outcomes.push_back(std::move(outcome));
    }
  }
  return aggregate_point(spec, value, outcomes, outcomes.size());
}

/// One sharded point: evaluate every owned trial in [0, max_trials) and
/// record the raw outcomes for merge(). The shard cannot stop early — how
/// far the global retry protocol reaches depends on other shards' failures.
PointResult run_point_shard(const SweepSpec& spec, std::size_t point_index, std::size_t value,
                            const SweepOptions& options, support::ThreadPool* pool) {
  const Scenario scenario = scenario_for(spec, value);
  std::vector<std::size_t> owned;
  for (std::size_t trial = 0; trial < spec.max_trials; ++trial) {
    if (options.shard.owns(point_index, trial)) owned.push_back(trial);
  }
  std::vector<TrialOutcome> outcomes =
      evaluate_trials(spec, scenario, point_index, owned, options, pool);

  PointResult point;
  point.sweep_value = value;
  for (std::size_t t = 0; t < owned.size(); ++t) {
    point.trial_outcomes.emplace(owned[t], std::move(outcomes[t]));
  }
  return point;
}

}  // namespace

core::Problem trial_problem(const SweepSpec& spec, std::size_t point_index, std::size_t trial) {
  return *ScenarioRegistry::instance()
              .resolve(spec.scenario_id)
              ->generate(scenario_for(spec, spec.values.at(point_index)),
                         trial_seed(spec, point_index, trial))
              .effective;
}

support::Table SweepResult::to_table() const {
  std::vector<std::string> header{to_string(spec.variable)};
  for (const Method& method : spec.methods) header.push_back(method.name + " period (ms)");
  header.push_back("trials");
  support::Table table(std::move(header));
  for (const PointResult& point : points) {
    std::vector<std::string> row{std::to_string(point.sweep_value)};
    for (const Method& method : spec.methods) {
      const auto it = point.period_by_method.find(method.name);
      row.push_back(it == point.period_by_method.end() || it->second.count == 0
                        ? "-"
                        : support::format_double(it->second.mean, 1));
    }
    row.push_back(std::to_string(point.successes) + "/" + std::to_string(point.attempts));
    table.add_row(std::move(row));
  }
  return table;
}

std::string SweepResult::to_chart() const {
  support::AsciiChart chart(to_string(spec.variable), "period (ms)");
  for (const Method& method : spec.methods) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const PointResult& point : points) {
      const auto it = point.period_by_method.find(method.name);
      if (it != point.period_by_method.end() && it->second.count > 0) {
        xs.push_back(static_cast<double>(point.sweep_value));
        ys.push_back(it->second.mean);
      }
    }
    if (!xs.empty()) chart.add_series(method.name, std::move(xs), std::move(ys));
  }
  return chart.render();
}

std::map<std::string, double> SweepResult::mean_ratio_to(const std::string& reference) const {
  std::map<std::string, support::RunningStats> ratios;
  for (const PointResult& point : points) {
    const auto ref = point.period_by_method.find(reference);
    if (ref == point.period_by_method.end() || ref->second.count == 0 ||
        ref->second.mean <= 0.0) {
      continue;
    }
    for (const auto& [name, summary] : point.period_by_method) {
      if (name == reference || summary.count == 0) continue;
      ratios[name].add(summary.mean / ref->second.mean);
    }
  }
  std::map<std::string, double> result;
  for (const auto& [name, stats] : ratios) result[name] = stats.mean();
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, support::ThreadPool* pool) {
  return run_sweep(spec, SweepOptions{}, pool);
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options,
                      support::ThreadPool* pool) {
  validate_spec(spec);
  MF_REQUIRE(options.shard.count >= 1, "shard count must be at least 1");
  MF_REQUIRE(options.shard.index < options.shard.count,
             "shard index must be below shard count");

  SweepResult result;
  result.spec = spec;
  result.shard = options.shard;
  result.points.reserve(spec.values.size());
  for (std::size_t point_index = 0; point_index < spec.values.size(); ++point_index) {
    const std::size_t value = spec.values[point_index];
    result.points.push_back(
        options.shard.is_sharded()
            ? run_point_shard(spec, point_index, value, options, pool)
            : run_point(spec, point_index, value, options, pool));
  }
  return result;
}

SweepResult merge(std::vector<SweepResult> shards) {
  MF_REQUIRE(!shards.empty(), "merge needs at least one shard result");
  // Order by shard index so validation reads naturally and the merge is
  // independent of the order shards were collected in.
  std::sort(shards.begin(), shards.end(),
            [](const SweepResult& a, const SweepResult& b) {
              return a.shard.index < b.shard.index;
            });

  const SweepResult& first = shards.front();
  const SweepSpec& spec = first.spec;
  validate_spec(spec);
  MF_REQUIRE(shards.size() == first.shard.count,
             "merge needs exactly one result per shard");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const SweepResult& shard = shards[s];
    MF_REQUIRE(shard.is_partial(), "merge input must be sharded partial results");
    MF_REQUIRE(shard.shard.index == s, "duplicate or missing shard index");
    MF_REQUIRE(shard.shard.count == first.shard.count, "shard counts disagree");
    MF_REQUIRE(shard.spec.name == spec.name && shard.spec.values == spec.values &&
                   shard.spec.variable == spec.variable && shard.spec.trials == spec.trials &&
                   shard.spec.max_trials == spec.max_trials &&
                   shard.spec.base_seed == spec.base_seed,
               "shard sweep specs disagree");
    MF_REQUIRE(shard.spec.scenario_id == spec.scenario_id, "shard scenario ids disagree");
    // The scenario defines the experiment: a stale shard regenerated after
    // a spec edit would otherwise merge silently into a mixed table.
    const Scenario& base = shard.spec.base;
    MF_REQUIRE(base.tasks == spec.base.tasks && base.machines == spec.base.machines &&
                   base.types == spec.base.types &&
                   base.time_min_ms == spec.base.time_min_ms &&
                   base.time_max_ms == spec.base.time_max_ms &&
                   base.failure_min == spec.base.failure_min &&
                   base.failure_max == spec.base.failure_max &&
                   base.failure_attachment == spec.base.failure_attachment &&
                   base.integer_times == spec.base.integer_times,
               "shard base scenarios disagree");
    // Model parameters are part of the experiment identity too — two shards
    // generated under different shock ranges or window factors must not mix.
    MF_REQUIRE(base.shock_min == spec.base.shock_min &&
                   base.shock_max == spec.base.shock_max &&
                   base.window_count == spec.base.window_count &&
                   base.window_ms == spec.base.window_ms &&
                   base.factor_min == spec.base.factor_min &&
                   base.factor_max == spec.base.factor_max &&
                   base.mean_uptime_ms == spec.base.mean_uptime_ms &&
                   base.mean_repair_ms == spec.base.mean_repair_ms,
               "shard model parameters disagree");
    MF_REQUIRE(shard.spec.methods.size() == spec.methods.size(),
               "shard method lists disagree");
    for (std::size_t k = 0; k < spec.methods.size(); ++k) {
      MF_REQUIRE(shard.spec.methods[k].name == spec.methods[k].name &&
                     shard.spec.methods[k].solver_id == spec.methods[k].solver_id &&
                     shard.spec.methods[k].require_proof == spec.methods[k].require_proof,
                 "shard method lists disagree");
    }
    MF_REQUIRE(shard.points.size() == spec.values.size(), "shard point counts disagree");
  }

  SweepResult result;
  result.spec = spec;
  result.points.reserve(spec.values.size());
  for (std::size_t point_index = 0; point_index < spec.values.size(); ++point_index) {
    // Reassemble the full outcome sequence from each owner shard, then
    // replay the retry protocol: draw `trials`, extend one trial at a time
    // while short of `trials` successes, stop at max_trials.
    std::vector<TrialOutcome> outcomes;
    outcomes.reserve(spec.max_trials);
    for (std::size_t trial = 0; trial < spec.max_trials; ++trial) {
      const std::size_t owner =
          ShardSpec::owner(point_index, trial, first.shard.count);
      const PointResult& shard_point = shards[owner].points[point_index];
      const auto it = shard_point.trial_outcomes.find(trial);
      MF_REQUIRE(it != shard_point.trial_outcomes.end(),
                 "shard result is missing an owned trial outcome");
      outcomes.push_back(it->second);
    }
    std::size_t drawn = spec.trials;
    std::size_t successes = 0;
    for (std::size_t t = 0; t < drawn; ++t) successes += outcomes[t].success ? 1 : 0;
    while (successes < spec.trials && drawn < spec.max_trials) {
      successes += outcomes[drawn].success ? 1 : 0;
      ++drawn;
    }
    result.points.push_back(
        aggregate_point(spec, spec.values[point_index], outcomes, drawn));
  }
  return result;
}

}  // namespace mf::exp
