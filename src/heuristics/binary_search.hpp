// Binary-search scheduling engine shared by H2 and H3 (Algorithms 2-3).
//
// Both heuristics guess a candidate period, try to place every task
// (backward) without any machine exceeding the guess, and bisect: success
// tightens the upper bound, failure raises the lower bound. They differ only
// in how they order candidate machines for a task, which is captured by the
// MachineSelector policy. As in the paper, the search runs on integer
// millisecond bounds starting from [0, period of all tasks on the slowest
// machine] and stops when max - min <= 1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "heuristics/heuristic.hpp"

namespace mf::heuristics {

/// Policy: proposes machines for `task` in decreasing preference. The engine
/// walks the proposal order and takes the first machine that is
/// type-feasible and keeps the load within the candidate period. Returning
/// machines in preference order is what distinguishes H2 from H3.
///
/// A preference depends on the problem only, never on the loads of a pass,
/// so selectors build every order once in `prepare()` and each bisection
/// pass just walks them.
class MachineSelector {
 public:
  virtual ~MachineSelector() = default;

  /// Called once per problem before any assignment pass; builds the
  /// machine orders the passes walk.
  virtual void prepare(const core::Problem& problem) = 0;

  /// All machine indices, most preferred first, for `task` of the problem
  /// last passed to `prepare()`. The span stays valid until the next
  /// `prepare()`.
  [[nodiscard]] virtual std::span<const core::MachineIndex> order_machines(
      core::TaskIndex task) const = 0;
};

/// H2's preference: every machine column ranks the tasks by ascending w
/// (dense ranks, so equal w share a rank); a task prefers machines where it
/// ranks best, then smaller w, then smaller index. The order depends only
/// on the task's own w row, so tasks with equal rows (all tasks of a type on
/// a type-uniform platform) share one order: the selector stores one order
/// per distinct row plus each task's row class.
class RankSelector final : public MachineSelector {
 public:
  void prepare(const core::Problem& problem) override;
  [[nodiscard]] std::span<const core::MachineIndex> order_machines(
      core::TaskIndex task) const override;

 private:
  std::size_t machine_count_ = 0;
  std::vector<core::MachineIndex> orders_;  ///< row-major, one row of m per class
  std::vector<std::size_t> class_of_;       ///< per task: its w-row class
};

/// H3's preference: one static order for every task, by decreasing
/// heterogeneity (standard deviation of the machine's processing-time
/// column).
class HeterogeneitySelector final : public MachineSelector {
 public:
  void prepare(const core::Problem& problem) override;
  [[nodiscard]] std::span<const core::MachineIndex> order_machines(
      core::TaskIndex task) const override;

 private:
  std::vector<core::MachineIndex> static_order_;
};

/// Runs one greedy placement pass at a fixed period bound. Returns the
/// mapping when every task fits, std::nullopt otherwise.
[[nodiscard]] std::optional<core::Mapping> assign_within_period(
    const core::Problem& problem, const MachineSelector& selector, double period_bound);

/// Full bisection (Algorithms 2-3 outer loop). Returns the best mapping
/// found, or std::nullopt when even the trivial upper bound fails (cannot
/// happen for feasible inputs; kept for interface honesty).
///
/// Every midpoint gets the outcome a greedy pass at that bound would give,
/// but a pass is run only when no earlier one decided it. A pass makes the
/// same comparisons for every bound between the largest candidate load it
/// accepted and the smallest it rejected, so a midpoint in that interval
/// reuses its outcome; the mapping and the period are those of running
/// every pass.
[[nodiscard]] std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                                  MachineSelector& selector);

/// How a bisection spent its midpoints.
struct BisectionCounts {
  std::size_t passes = 0;   ///< greedy passes run, the upper-bound pass included
  std::size_t skipped = 0;  ///< midpoints decided by an earlier pass's interval
};

/// The same bisection, also reporting into `counts` (overwritten) the
/// passes it ran and the midpoints it skipped.
[[nodiscard]] std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                                  MachineSelector& selector,
                                                                  BisectionCounts& counts);

/// H2 — "potential optimization": for every machine the tasks are ranked by
/// processing time; a task prefers machines where its rank is best (ties
/// broken by smaller w, then smaller index).
class H2BinarySearchRank final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "H2"; }
  [[nodiscard]] std::optional<core::Mapping> run(const core::Problem& problem,
                                                 support::Rng& rng) const override;
};

/// H3 — "heterogeneity": machines are ordered by the standard deviation of
/// their processing-time column, most heterogeneous first, preserving
/// homogeneous machines for later (earlier-in-chain) tasks.
class H3BinarySearchHeterogeneity final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "H3"; }
  [[nodiscard]] std::optional<core::Mapping> run(const core::Problem& problem,
                                                 support::Rng& rng) const override;
};

}  // namespace mf::heuristics
