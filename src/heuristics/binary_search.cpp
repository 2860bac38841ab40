#include "heuristics/binary_search.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/evaluation.hpp"
#include "heuristics/assignment_state.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mf::heuristics {

using core::MachineIndex;
using core::TaskIndex;

std::optional<core::Mapping> assign_within_period(const core::Problem& problem,
                                                  const MachineSelector& selector,
                                                  double period_bound) {
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
      if (loads[u] + x_base * attempts[u] * times[u] > period_bound) continue;
      state.assign(i, u);
      placed = true;
      break;
    }
    if (!placed) return std::nullopt;
  }
  MF_CHECK(state.all_assigned(), "assignment pass incomplete");
  return state.mapping();
}

std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                    MachineSelector& selector) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);

  // Integer millisecond bounds, exactly as Algorithms 2-3.
  std::int64_t lo = 0;
  auto hi = static_cast<std::int64_t>(std::ceil(core::period_upper_bound(problem)));
  std::optional<core::Mapping> best =
      assign_within_period(problem, selector, static_cast<double>(hi));
  if (!best.has_value()) return std::nullopt;  // defensive; UB is always feasible

  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    auto attempt = assign_within_period(problem, selector, static_cast<double>(mid));
    if (attempt.has_value()) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return best;
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
  // ranking them alone gives every task its rank over all tasks.
  std::vector<std::size_t> ranks(k * m);
  std::vector<std::size_t> by_time(k);
  for (MachineIndex u = 0; u < m; ++u) {
    std::iota(by_time.begin(), by_time.end(), std::size_t{0});
    std::sort(by_time.begin(), by_time.end(), [&](std::size_t a, std::size_t b) {
      return platform.time(representatives[a], u) < platform.time(representatives[b], u);
    });
    std::size_t rank = 0;
    for (std::size_t r = 0; r < k; ++r) {
      if (r > 0 && platform.time(representatives[by_time[r]], u) >
                       platform.time(representatives[by_time[r - 1]], u)) {
        ++rank;
      }
      ranks[by_time[r] * m + u] = rank;
    }
  }

  // One order per class: best rank first; ties on rank go to smaller w
  // ("machines are sorted by non-decreasing values of w"), then, by the
  // stable sort, to the smaller index.
  orders_.resize(k * m);
  for (std::size_t c = 0; c < k; ++c) {
    const std::span<MachineIndex> order(orders_.data() + c * m, m);
    const std::span<const std::size_t> rank(ranks.data() + c * m, m);
    const std::span<const double> times = platform.time_row(representatives[c]);
    std::iota(order.begin(), order.end(), MachineIndex{0});
    std::stable_sort(order.begin(), order.end(), [&](MachineIndex a, MachineIndex b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return times[a] < times[b];
    });
  }
}

std::span<const MachineIndex> RankSelector::order_machines(TaskIndex task) const {
  return std::span<const MachineIndex>(orders_).subspan(class_of_[task] * machine_count_,
                                                        machine_count_);
}

void HeterogeneitySelector::prepare(const core::Problem& problem) {
  const std::size_t m = problem.machine_count();
  std::vector<double> heterogeneity(m, 0.0);
  for (MachineIndex u = 0; u < m; ++u) {
    support::RunningStats stats;
    for (TaskIndex i = 0; i < problem.task_count(); ++i) {
      stats.add(problem.platform.time(i, u));
    }
    heterogeneity[u] = stats.stddev();
  }
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
