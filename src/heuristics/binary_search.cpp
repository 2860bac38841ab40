#include "heuristics/binary_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "heuristics/assignment_state.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mf::heuristics {

using core::MachineIndex;
using core::TaskIndex;

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Bounds [lo, hi) over which a greedy pass's outcome is fixed; empty by
/// default.
struct BoundInterval {
  double lo = kInfinity;
  double hi = -kInfinity;

  /// False for a NaN bound or edge, so a NaN never widens what is reused.
  [[nodiscard]] bool contains(double bound) const { return bound >= lo && bound < hi; }
};

/// One greedy pass: the mapping when every task fits, and the interval of
/// bounds for which every `load > bound` comparison the pass made comes out
/// the same. `lo` is the largest load that fit and `hi` the smallest load
/// rejected. Which machines a task may take depends only on earlier
/// placements, so any bound in the interval makes the same placements, the
/// same loads and the same outcome.
struct GreedyPass {
  std::optional<core::Mapping> mapping;
  BoundInterval decided{-kInfinity, kInfinity};  ///< narrowed by each comparison
};

GreedyPass greedy_pass(const core::Problem& problem, const MachineSelector& selector,
                       double period_bound) {
  GreedyPass pass;
  AssignmentState state(problem);
  const SpecializationTracker& tracker = state.tracker();
  const std::span<const double> loads = state.loads();
  for (TaskIndex i : problem.app.backward_order()) {
    const std::span<const MachineIndex> order = selector.order_machines(i);
    MF_CHECK(order.size() == problem.machine_count(), "selector must order all machines");
    const core::TypeIndex type = problem.app.type_of(i);
    const double x_base = state.downstream_products(i);
    const std::span<const double> attempts = problem.platform.attempts_row(i);
    const std::span<const double> times = problem.platform.time_row(i);
    bool placed = false;
    for (MachineIndex u : order) {
      if (!tracker.allowed(type, u)) continue;
      // AssignmentState::load_if(i, u) with the per-task reads hoisted; the
      // operand order is the same, so the doubles are bit-identical.
      const double load = loads[u] + x_base * attempts[u] * times[u];
      if (load > period_bound) {
        pass.decided.hi = std::min(pass.decided.hi, load);
        continue;
      }
      // A NaN load fits every bound: `>` is false, so it narrows nothing.
      if (load > pass.decided.lo) pass.decided.lo = load;
      state.assign(i, u);
      placed = true;
      break;
    }
    if (!placed) return pass;
  }
  MF_CHECK(state.all_assigned(), "assignment pass incomplete");
  pass.mapping = state.mapping();
  return pass;
}

}  // namespace

std::optional<core::Mapping> assign_within_period(const core::Problem& problem,
                                                  const MachineSelector& selector,
                                                  double period_bound) {
  return greedy_pass(problem, selector, period_bound).mapping;
}

std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                    MachineSelector& selector) {
  BisectionCounts counts;
  return binary_search_schedule(problem, selector, counts);
}

std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                    MachineSelector& selector,
                                                    BisectionCounts& counts) {
  counts = {};
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);

  // Integer millisecond bounds, exactly as Algorithms 2-3.
  std::int64_t lo = 0;
  auto hi = static_cast<std::int64_t>(std::ceil(core::period_upper_bound(problem)));
  GreedyPass fit = greedy_pass(problem, selector, static_cast<double>(hi));
  ++counts.passes;
  if (!fit.mapping.has_value()) return std::nullopt;  // defensive; UB is always feasible

  // `fit` is the last pass run that succeeded, the one whose mapping is
  // kept: a midpoint inside its interval yields that same mapping. `failed`
  // is the interval of the last pass run that failed: a midpoint inside it
  // fails too. Older passes cannot decide anything more: hi only falls and
  // lo only rises, and a pass was run only because its bound lay outside
  // the intervals before it, so every later midpoint lies outside them too.
  BoundInterval failed;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const auto bound = static_cast<double>(mid);
    if (fit.decided.contains(bound)) {
      hi = mid;
      ++counts.skipped;
      continue;
    }
    if (failed.contains(bound)) {
      lo = mid;
      ++counts.skipped;
      continue;
    }
    GreedyPass attempt = greedy_pass(problem, selector, bound);
    ++counts.passes;
    if (attempt.mapping.has_value()) {
      hi = mid;
      fit = std::move(attempt);
    } else {
      lo = mid;
      failed = attempt.decided;
    }
  }
  return std::move(fit.mapping);
}

void RankSelector::prepare(const core::Problem& problem) {
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  const core::Platform& platform = problem.platform;
  machine_count_ = m;

  // Row classes: a task joins its type's first class when its w row equals
  // that class's representative row (always, on a type-uniform platform);
  // any other task opens a class of its own.
  constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);
  std::vector<std::size_t> class_of_type(problem.type_count(), kNoClass);
  std::vector<TaskIndex> representatives;
  class_of_.resize(n);
  for (TaskIndex i = 0; i < n; ++i) {
    std::size_t& hint = class_of_type[problem.app.type_of(i)];
    if (hint != kNoClass &&
        std::ranges::equal(platform.time_row(i), platform.time_row(representatives[hint]))) {
      class_of_[i] = hint;
      continue;
    }
    if (hint == kNoClass) hint = representatives.size();
    class_of_[i] = representatives.size();
    representatives.push_back(i);
  }
  const std::size_t k = representatives.size();

  // Dense rank of each class in each machine's ascending-w column, matching
  // the paper's "rank of T_i in the ordered set" (sets collapse ties). The
  // representatives hold exactly the distinct w values of all tasks, so
  // ranking them alone gives every task its rank over all tasks. Each
  // column is gathered once into contiguous (w, class) pairs and sorted
  // there; tied w share a rank whatever order the sort leaves them in.
  std::vector<std::size_t> ranks(k * m);
  std::vector<std::pair<double, std::size_t>> column(k);
  for (MachineIndex u = 0; u < m; ++u) {
    for (std::size_t c = 0; c < k; ++c) column[c] = {platform.time_row(representatives[c])[u], c};
    std::sort(column.begin(), column.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t rank = 0;
    for (std::size_t r = 0; r < k; ++r) {
      if (r > 0 && column[r].first > column[r - 1].first) ++rank;
      ranks[column[r].second * m + u] = rank;
    }
  }

  // One order per class: best rank first; ties on rank go to smaller w
  // ("machines are sorted by non-decreasing values of w"), then to the
  // smaller index. Ranks lie in [0, k), so a counting sort places the
  // machines by rank, in index order within a rank; each run of equal rank
  // is then sorted by (w, index). The result is the one total order on
  // (rank, w, index), which is a stable sort's order on (rank, w).
  std::vector<std::size_t> rank_start(k + 1);
  orders_.resize(k * m);
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t* const rank = ranks.data() + c * m;
    const std::span<const double> times = platform.time_row(representatives[c]);
    MachineIndex* const order = orders_.data() + c * m;
    std::ranges::fill(rank_start, std::size_t{0});
    for (MachineIndex u = 0; u < m; ++u) ++rank_start[rank[u] + 1];
    for (std::size_t r = 0; r < k; ++r) rank_start[r + 1] += rank_start[r];
    for (MachineIndex u = 0; u < m; ++u) order[rank_start[rank[u]]++] = u;
    // rank_start[r] now ends rank r's run.
    std::size_t run_begin = 0;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t run_end = rank_start[r];
      if (run_end - run_begin > 1) {
        std::sort(order + run_begin, order + run_end, [&](MachineIndex a, MachineIndex b) {
          return times[a] < times[b] || (times[a] == times[b] && a < b);
        });
      }
      run_begin = run_end;
    }
  }
}

std::span<const MachineIndex> RankSelector::order_machines(TaskIndex task) const {
  return std::span<const MachineIndex>(orders_).subspan(class_of_[task] * machine_count_,
                                                        machine_count_);
}

void HeterogeneitySelector::prepare(const core::Problem& problem) {
  const std::size_t m = problem.machine_count();
  // One sweep over the rows; each machine's accumulator sees its column in
  // task order, the same add() sequence as walking the column alone.
  std::vector<support::RunningStats> columns(m);
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    const std::span<const double> times = problem.platform.time_row(i);
    for (MachineIndex u = 0; u < m; ++u) columns[u].add(times[u]);
  }
  std::vector<double> heterogeneity(m);
  for (MachineIndex u = 0; u < m; ++u) heterogeneity[u] = columns[u].stddev();
  static_order_.resize(m);
  std::iota(static_order_.begin(), static_order_.end(), MachineIndex{0});
  std::stable_sort(static_order_.begin(), static_order_.end(),
                   [&](MachineIndex a, MachineIndex b) {
                     return heterogeneity[a] > heterogeneity[b];
                   });
}

std::span<const MachineIndex> HeterogeneitySelector::order_machines(TaskIndex /*task*/) const {
  return static_order_;
}

std::optional<core::Mapping> H2BinarySearchRank::run(const core::Problem& problem,
                                                     support::Rng& /*rng*/) const {
  RankSelector selector;
  return binary_search_schedule(problem, selector);
}

std::optional<core::Mapping> H3BinarySearchHeterogeneity::run(const core::Problem& problem,
                                                              support::Rng& /*rng*/) const {
  HeterogeneitySelector selector;
  return binary_search_schedule(problem, selector);
}

}  // namespace mf::heuristics
