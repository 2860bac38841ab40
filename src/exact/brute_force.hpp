// Exhaustive enumeration of mappings for tiny instances.
//
// These are the trust anchors of the test suite: the branch-and-bound and
// the polynomial special-case solvers are all validated against plain
// enumeration. Search spaces are exponential (m^n for general), so
// callers keep n and m single-digit.
#pragma once

#include <cstdint>
#include <optional>

#include "core/evaluation.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::exact {

struct BruteForceResult {
  std::optional<core::Mapping> mapping;  ///< nullopt when no feasible mapping exists
  double period = 0.0;
  std::uint64_t evaluated = 0;  ///< number of complete mappings scored
};

/// Minimum-period mapping under the given rule set, by full enumeration.
/// For kOneToOne requires nothing beyond n <= m to be feasible; for
/// kSpecialized requires p <= m.
[[nodiscard]] BruteForceResult brute_force_optimal(const core::Problem& problem,
                                                   core::MappingRule rule);

}  // namespace mf::exact
