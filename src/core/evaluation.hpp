// Analytic evaluation of a mapped micro-factory (Sections 4.1 and 6.1).
//
// Given an allocation a, the expected number of products task T_i must
// process so that one finished product leaves the system is
//     x_i = x_succ(i) / (1 - f_{i,a(i)})        (x = 1 past a sink),
// and the period of machine M_u is
//     period(M_u) = sum_{i : a(i)=u} x_i * w_{i,u}.
// The system period is the largest machine period (its machines are the
// "critical machines"); throughput is its inverse. These formulas — and
// the MAXx_i upper bound (the big-M of the paper's Section 6.1 MIP and the
// heuristics' binary-search ceiling) — live here so every solver, heuristic
// and test scores mappings identically.
#pragma once

#include <vector>

#include "core/application.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::core {

/// Per-task expected product counts x_i for a complete mapping.
[[nodiscard]] std::vector<double> expected_products(const Problem& problem,
                                                    const Mapping& mapping);

/// Per-machine periods (ms per finished product), Equation (1).
[[nodiscard]] std::vector<double> machine_periods(const Problem& problem,
                                                  const Mapping& mapping);

/// System period: max over machines. Smaller is better.
[[nodiscard]] double period(const Problem& problem, const Mapping& mapping);

/// Throughput in finished products per millisecond (1 / period).
[[nodiscard]] double throughput(const Problem& problem, const Mapping& mapping);

/// Machines attaining the system period (Section 4.1's critical machines).
[[nodiscard]] std::vector<MachineIndex> critical_machines(const Problem& problem,
                                                          const Mapping& mapping);

/// MAXx_i of Section 6.1: upper bound on x_i over *all* mappings, i.e. the
/// pessimistic product count if every downstream task ran on its least
/// reliable machine. Used for big-M constants and binary-search ceilings.
[[nodiscard]] std::vector<double> max_expected_products(const Problem& problem);

/// Safe upper bound on the period of any complete mapping: every task at
/// its pessimistic x on its slowest machine, all on one machine
/// (Algorithms 2-3 initialise maxPeriod with exactly this quantity:
/// "period of all tasks on the slowest machine").
[[nodiscard]] double period_upper_bound(const Problem& problem);

/// Number of raw products to feed into each *source* task so that, in
/// expectation, `finished_products` units leave the system (Section 2's
/// "guarantee the output of a given number of products" viewed in
/// expectation; see extensions/window_constrained for the probabilistic
/// guarantee). Entry k corresponds to app.sources()[k].
[[nodiscard]] std::vector<double> expected_inputs_for(const Problem& problem,
                                                      const Mapping& mapping,
                                                      double finished_products);

}  // namespace mf::core
