#include "exact/specialized_bnb.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/failure.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h4_family.hpp"
#include "support/check.hpp"

namespace mf::exact {

using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

namespace {

struct Searcher {
  const core::Problem& problem;
  const BnBOptions& options;
  // Assignment order: the shared backward traversal.
  const std::vector<TaskIndex>& order;

  /// One position of the assignment order, laid out for lower_bound's walk:
  /// the task's successor, where that successor sits in the order, and the
  /// task's optimistic completion ingredients (minima over machines).
  struct WalkStep {
    TaskIndex succ;        ///< kNoTask for a sink
    std::size_t succ_pos;  ///< position of succ in `order` (before this step's)
    double min_attempts;   ///< min_u 1/(1-f_{i,u})
    double min_time;       ///< min_u w_{i,u}
  };
  std::vector<WalkStep> walk;

  /// A machine the task at some depth may go to, with the load it would
  /// leave there.
  struct Candidate {
    MachineIndex machine;
    double resulting_load;
  };
  /// One slice of machine_count() candidates per depth: depth d lists its
  /// candidates in [d*m, (d+1)*m), and the children's recursion only writes
  /// deeper slices, so a node's list survives the search below it.
  std::vector<Candidate> candidate_scratch;

  // Mutable search state.
  std::vector<MachineIndex> assignment;
  std::vector<double> x;      // expected products, valid for assigned tasks
  std::vector<double> loads;  // per machine
  std::vector<TypeIndex> machine_type;
  std::size_t free_machines;
  std::size_t types_to_go;
  std::vector<std::size_t> type_machine_count;
  double committed_load_sum = 0.0;

  BnBResult result;
  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<MachineIndex> incumbent_assignment;
  bool budget_exhausted = false;
  /// Scratch for lower_bound, by position in `order`, sized once: every
  /// entry read is written earlier in the same call (successors precede
  /// predecessors in the backward order). The candidate lists live in
  /// candidate_scratch, also sized once, so the search allocates nothing
  /// per node.
  std::vector<double> opt_x_scratch;

  Searcher(const core::Problem& p, const BnBOptions& opts)
      : problem(p),
        options(opts),
        order(p.app.backward_order()),
        walk(p.task_count()),
        candidate_scratch(p.task_count() * p.machine_count()),
        assignment(p.task_count(), core::kUnassigned),
        x(p.task_count(), 0.0),
        loads(p.machine_count(), 0.0),
        machine_type(p.machine_count(), core::kNoTask),
        free_machines(p.machine_count()),
        types_to_go(p.type_count()),
        type_machine_count(p.type_count(), 0),
        opt_x_scratch(p.task_count(), 0.0) {
    std::vector<std::size_t> position(p.task_count());
    for (std::size_t d = 0; d < order.size(); ++d) position[order[d]] = d;
    for (std::size_t d = 0; d < order.size(); ++d) {
      const TaskIndex i = order[d];
      double best_f = std::numeric_limits<double>::infinity();
      double best_w = std::numeric_limits<double>::infinity();
      // Row reductions over the cached F table and the w row (span idiom):
      // the cached attempts value is the same survival_inverse double.
      const std::span<const double> attempts_row = p.platform.attempts_row(i);
      const std::span<const double> time_row = p.platform.time_row(i);
      for (MachineIndex u = 0; u < p.machine_count(); ++u) {
        best_f = std::min(best_f, attempts_row[u]);
        best_w = std::min(best_w, time_row[u]);
      }
      const TaskIndex succ = p.app.successor(i);
      walk[d] = {succ, succ == core::kNoTask ? 0 : position[succ], best_f, best_w};
    }
  }

  [[nodiscard]] bool allowed(TypeIndex t, MachineIndex u) const {
    const TypeIndex current = machine_type[u];
    if (current == t) return true;
    if (current != core::kNoTask) return false;
    if (type_machine_count[t] == 0) return true;
    return free_machines > types_to_go;  // reserve machines for unseen types
  }

  /// Lower bound on the best complete period below this node.
  [[nodiscard]] double lower_bound(std::size_t depth) {
    double bound = *std::max_element(loads.begin(), loads.end());

    // Optimistic x for remaining tasks. Positions below `depth` are exactly
    // the assigned tasks, so a successor at or after `depth` is unassigned
    // and its optimistic x was computed earlier in this very loop (it
    // precedes its predecessors in the backward order); one before `depth`
    // has its exact x.
    double optimistic_work = 0.0;
    double best_single = 0.0;
    double* const opt_x = opt_x_scratch.data();
    for (std::size_t d = depth; d < walk.size(); ++d) {
      const WalkStep& step = walk[d];
      double downstream = 1.0;
      if (step.succ != core::kNoTask) {
        downstream = step.succ_pos >= depth ? opt_x[step.succ_pos] : x[step.succ];
      }
      opt_x[d] = downstream * step.min_attempts;
      const double increment = opt_x[d] * step.min_time;
      optimistic_work += increment;
      best_single = std::max(best_single, increment);
    }
    // Average bound: even perfectly balanced, the max load is at least the
    // mean of total committed + optimistic remaining work.
    const double average_bound =
        (committed_load_sum + optimistic_work) / static_cast<double>(loads.size());
    return std::max({bound, average_bound, best_single});
  }

  void search(std::size_t depth) {
    if (budget_exhausted) return;
    ++result.nodes;
    if (options.max_nodes != 0 && result.nodes > options.max_nodes) {
      // The node that trips the budget is never expanded, so it does not
      // count: an exhausted search reports exactly max_nodes.
      --result.nodes;
      budget_exhausted = true;
      return;
    }
    if (depth == order.size()) {
      const double period = *std::max_element(loads.begin(), loads.end());
      if (period < incumbent) {
        incumbent = period;
        incumbent_assignment = assignment;
      }
      return;
    }
    if (lower_bound(depth) >= incumbent) return;

    const TaskIndex i = order[depth];
    const TypeIndex t = problem.app.type_of(i);
    const TaskIndex succ = walk[depth].succ;
    const double x_base = succ == core::kNoTask ? 1.0 : x[succ];
    // Hot row views for this task: w, f, and the cached F = 1/(1-f).
    const std::span<const double> time_row = problem.platform.time_row(i);
    const std::span<const double> failure_row = problem.platform.failure_row(i);
    const std::span<const double> attempts_row = problem.platform.attempts_row(i);

    // Candidate machines sorted by resulting load: good incumbents early.
    // The list lives in this depth's slice of candidate_scratch.
    const std::size_t m = problem.machine_count();
    Candidate* const candidates = candidate_scratch.data() + depth * m;
    std::size_t count = 0;
    bool considered_free = false;
    for (MachineIndex u = 0; u < m; ++u) {
      if (!allowed(t, u)) continue;
      // Free machines with identical (w, f) columns for type t are
      // interchangeable; trying one representative per load profile would
      // be an optimization, but loads differ once tasks are placed. We only
      // collapse the exactly-equivalent case: several *empty* machines with
      // equal w and f for this task.
      if (machine_type[u] == core::kNoTask && loads[u] == 0.0) {
        bool duplicate = false;
        if (considered_free) {
          for (std::size_t k = 0; k < count; ++k) {
            const MachineIndex v = candidates[k].machine;
            if (machine_type[v] == core::kNoTask && loads[v] == 0.0 &&
                time_row[v] == time_row[u] && failure_row[v] == failure_row[u]) {
              duplicate = true;
              break;
            }
          }
        }
        considered_free = true;
        if (duplicate) continue;
      }
      const double xi = x_base * attempts_row[u];
      const Candidate candidate{u, loads[u] + xi * time_row[u]};
      // Insertion sort on strict `<`: an equal load stays behind the ones
      // listed before it, so the order is std::stable_sort's, without the
      // temporary buffer stable_sort allocates on every call.
      std::size_t slot = count++;
      for (; slot > 0 && candidate.resulting_load < candidates[slot - 1].resulting_load; --slot) {
        candidates[slot] = candidates[slot - 1];
      }
      candidates[slot] = candidate;
    }

    for (std::size_t k = 0; k < count; ++k) {
      const Candidate& candidate = candidates[k];
      const MachineIndex u = candidate.machine;
      if (candidate.resulting_load >= incumbent) continue;  // dominated branch

      // Apply.
      const TypeIndex saved_type = machine_type[u];
      const double xi = x_base * attempts_row[u];
      const double increment = xi * time_row[u];
      const bool newly_dedicated = saved_type == core::kNoTask;
      assignment[i] = u;
      x[i] = xi;
      loads[u] += increment;
      committed_load_sum += increment;
      if (newly_dedicated) {
        machine_type[u] = t;
        --free_machines;
        if (type_machine_count[t] == 0) --types_to_go;
        ++type_machine_count[t];
      }

      search(depth + 1);

      // Undo.
      assignment[i] = core::kUnassigned;
      loads[u] -= increment;
      committed_load_sum -= increment;
      if (newly_dedicated) {
        machine_type[u] = saved_type;
        ++free_machines;
        --type_machine_count[t];
        if (type_machine_count[t] == 0) ++types_to_go;
      }
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

BnBResult solve_specialized_optimal(const core::Problem& problem, const BnBOptions& options) {
  BnBResult empty;
  if (problem.type_count() > problem.machine_count()) {
    empty.proven_optimal = true;  // provably infeasible
    return empty;
  }

  Searcher searcher(problem, options);

  if (options.seed_with_heuristics) {
    support::Rng rng{0};  // deterministic heuristics ignore it
    heuristics::H2BinarySearchRank h2;
    heuristics::H4wFastestMachine h4w;
    for (const heuristics::Heuristic* h :
         std::initializer_list<const heuristics::Heuristic*>{&h2, &h4w}) {
      if (auto mapping = h->run(problem, rng)) {
        const double period = core::period(problem, *mapping);
        if (period < searcher.incumbent) {
          searcher.incumbent = period;
          searcher.incumbent_assignment = mapping->assignment();
        }
      }
    }
  }

  searcher.search(0);

  searcher.result.proven_optimal = !searcher.budget_exhausted;
  if (!searcher.incumbent_assignment.empty()) {
    searcher.result.mapping = core::Mapping{searcher.incumbent_assignment};
    searcher.result.period = searcher.incumbent;
  }
  return searcher.result;
}

}  // namespace mf::exact
