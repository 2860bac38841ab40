// Exact specialized-mapping solver by combinatorial branch-and-bound.
//
// The specialized mapping problem is NP-hard even for linear chains
// (Section 5.2), so exact solving is exponential; the paper uses a CPLEX
// MIP on small instances (Figures 10-12). This solver plays that role:
// it explores task-to-machine assignments in the same backward order as the
// heuristics, pruning with three lower bounds:
//   (1) the largest committed machine load (loads only grow),
//   (2) an average bound: (committed load + optimistic remaining work) / m,
//   (3) the best placement of any single remaining task on an empty machine.
// "Optimistic" uses per-task minima over machines of both the failure factor
// and the processing time — an underestimate of any completion. The
// incumbent starts from the best of H2/H4w, so pruning bites immediately.
//
// A node budget mirrors the paper's observation that the exact approach
// stops being usable past ~15 tasks: when the budget is exhausted the best
// incumbent is returned with proven_optimal = false.
//
// The search is deterministic: the same problem and options visit the same
// nodes in the same order, so `nodes`, the mapping and the period's bits
// are reproducible. tests/test_bnb_golden.cpp pins all three, so a change
// that flips a single prune anywhere in the tree fails there.
#pragma once

#include <cstdint>
#include <optional>

#include "core/evaluation.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::exact {

struct BnBOptions {
  std::uint64_t max_nodes = 50'000'000;  ///< exploration budget (0 = unlimited)
  bool seed_with_heuristics = true;      ///< warm-start incumbent from H2/H4w
};

struct BnBResult {
  std::optional<core::Mapping> mapping;  ///< best mapping found (nullopt if infeasible)
  double period = 0.0;
  bool proven_optimal = false;  ///< search space exhausted within budget
  std::uint64_t nodes = 0;      ///< nodes expanded (deterministic, see above)
};

/// Minimum-period *specialized* mapping. Requires p <= m for feasibility
/// (otherwise returns an empty result with proven_optimal = true, mirroring
/// "no specialized mapping exists").
[[nodiscard]] BnBResult solve_specialized_optimal(const core::Problem& problem,
                                                  const BnBOptions& options = {});

}  // namespace mf::exact
