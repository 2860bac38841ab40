// The sweep runner: regenerates one paper figure.
//
// A sweep varies one scenario dimension (n for Figures 5-8 and 10-12, p for
// Figure 9) over a list of values. For every point it draws `trials`
// random instances (all methods see the *same* instance — the paired design
// the paper uses) and averages each method's period. Instances are drawn by
// the sweep's named scenario generator (scenario_registry.hpp): solvers see
// the failure model's *effective* problem, and recorded periods are the
// model's analytic periods of the produced mappings — so one spec sweeps
// any failure regime the registry knows. When an exact method
// is present, the paper only reports points with enough successful exact
// solves ("results are reported only if 30 successful experiments over 60
// trials are obtained with the MIP"); `max_trials`/`target_successes`
// reproduce that protocol.
//
// Execution goes through one engine: every (trial, method) pair becomes a
// `solve::SolveRequest` and `solve::SolveService` fans the requests over the
// thread pool — the same path the CLI and examples use, so sweeps inherit
// result caching and per-request error isolation for free. Seeds are
// content-addressed: a request's seed depends only on (base_seed,
// point, trial, method name), never on batch composition — which is what
// makes sharded execution exact. A `ShardSpec` deterministically partitions
// (point, trial) pairs across processes; each shard records raw per-trial
// outcomes and `merge()` replays the success-counting protocol over them,
// reproducing the unsharded `SweepResult` bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/method.hpp"
#include "exp/scenario.hpp"
#include "solve/solver.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace mf::solve {
class CacheBackend;
class SolveExecutor;
}

namespace mf::exp {

enum class SweepVariable { kTasks, kTypes, kMachines };

[[nodiscard]] std::string to_string(SweepVariable variable);

struct SweepSpec {
  std::string name;         ///< e.g. "fig05"
  std::string description;  ///< one-line figure caption
  Scenario base;            ///< sweep variable overridden per point
  /// Scenario-generator id (scenario_registry.hpp): which failure regime
  /// instances are drawn under. "iid" is the paper's model and reproduces
  /// the pre-registry sweeps bit for bit; other ids solve the model's
  /// *effective* problem and record model-adjusted analytic periods.
  std::string scenario_id = "iid";
  SweepVariable variable = SweepVariable::kTasks;
  std::vector<std::size_t> values;
  std::vector<Method> methods;

  std::size_t trials = 30;  ///< successful trials to aggregate per point
  /// Upper limit on instance draws per point while chasing `trials`
  /// successes (only matters when a method can fail).
  std::size_t max_trials = 60;
  std::uint64_t base_seed = 0xC0FFEE;
};

/// Deterministic partition of a sweep's (point, trial) pairs across
/// `count` cooperating processes; shard `index` evaluates exactly the pairs
/// it owns. {0, 1} (the default) is the unsharded whole-sweep run.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool is_sharded() const noexcept { return count > 1; }
  /// The shard owning a (point, trial) pair: a stable mix of the pair, so
  /// ownership balances across shards and is identical in every process.
  [[nodiscard]] static std::size_t owner(std::size_t point_index, std::size_t trial,
                                         std::size_t count) noexcept;
  [[nodiscard]] bool owns(std::size_t point_index, std::size_t trial) const noexcept {
    return owner(point_index, trial, count) == index;
  }
};

/// Execution options orthogonal to what the sweep measures.
struct SweepOptions {
  ShardSpec shard;
  /// Cache policy stamped on every request (solve/cache_backend.hpp):
  /// kReadWrite makes a repeated figure run re-solve nothing.
  solve::CachePolicy cache = solve::CachePolicy::kOff;
  /// Cache backend every solve consults; null means the process-wide
  /// in-memory `ResultCache::global()`. Point it at a `TieredCache` over a
  /// `DiskCache` (mfsched --cache-dir) and the warm-sweep guarantee
  /// survives the process: a fresh run re-solves nothing a prior run
  /// stored. Must outlive the sweep.
  solve::CacheBackend* backend = nullptr;
  /// Where the sweep's solve batches execute; null means a local
  /// `SolveService` over `pool`/`backend`. Point it at a
  /// `serve::RemoteExecutor` and every (trial, method) solve ships to a
  /// scheduler daemon instead — the table is bit-identical either way,
  /// because requests carry content-addressed seeds and the wire round-trip
  /// is hexfloat-exact. Must outlive the sweep; `pool`/`backend` are
  /// ignored for solving when set.
  solve::SolveExecutor* executor = nullptr;
};

/// Raw outcome of one paired trial: either every method counted (success,
/// one period per method in spec order) or the trial is discarded.
struct TrialOutcome {
  bool success = false;
  std::vector<double> periods;
};

struct PointResult {
  std::size_t sweep_value = 0;
  /// Per-method period statistics over the successful common trials.
  std::map<std::string, support::Summary> period_by_method;
  std::size_t successes = 0;  ///< trials where every method produced a mapping
  std::size_t attempts = 0;   ///< instances drawn
  /// Raw outcomes keyed by trial index — recorded only by sharded runs
  /// (they cannot aggregate alone) and consumed by `merge()`; empty on
  /// complete results.
  std::map<std::size_t, TrialOutcome> trial_outcomes;
};

struct SweepResult {
  SweepSpec spec;
  ShardSpec shard;  ///< {0, 1} for complete (unsharded or merged) results
  std::vector<PointResult> points;

  /// True for a per-shard partial result: points carry raw trial outcomes
  /// but no aggregated statistics until `merge()`.
  [[nodiscard]] bool is_partial() const noexcept { return shard.is_sharded(); }

  /// One row per sweep value, one column per method (mean period in ms).
  [[nodiscard]] support::Table to_table() const;
  /// ASCII rendition of the figure.
  [[nodiscard]] std::string to_chart() const;
  /// Mean of (method period / reference period) over all points where the
  /// reference succeeded — the paper's "factor of X from the optimal".
  [[nodiscard]] std::map<std::string, double> mean_ratio_to(const std::string& reference) const;
};

/// Runs the sweep; `pool` may be null for serial execution.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, support::ThreadPool* pool = nullptr);

/// Runs the sweep with execution options. Sharded runs (shard.count > 1)
/// evaluate every owned (point, trial) pair up to max_trials — a shard
/// cannot know how far the global retry protocol will reach — and return a
/// partial result for `merge()`.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options,
                                    support::ThreadPool* pool = nullptr);

/// Recombines one partial result per shard (any order) into the complete
/// SweepResult by replaying the success-counting protocol over the recorded
/// outcomes — bit-for-bit identical to the unsharded run, since seeds are
/// content-addressed and aggregation order is trial order either way.
/// Throws std::invalid_argument on mismatched specs or missing shards.
[[nodiscard]] SweepResult merge(std::vector<SweepResult> shards);

}  // namespace mf::exp
