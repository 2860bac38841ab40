// Global solver registry: maps string ids to `Solver` instances so every
// mapping method is discoverable by name from the CLI, the experiment
// harness and the benches. The built-in families self-register on first
// access; additional solvers (experimental heuristics, test doubles) can be
// registered at runtime and become first-class citizens everywhere.
//
// Ids compose: a trailing "+ls" suffix (e.g. "H4w+ls", "bnb+ls") resolves
// to the base solver wrapped in the local-search refinement stage of
// extensions/local_search.hpp.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "solve/solver.hpp"

namespace mf::solve {

class SolverRegistry {
 public:
  /// The process-wide registry, with the built-in solvers ("H1".."H4f",
  /// "oto", "bnb", "brute") already registered.
  [[nodiscard]] static SolverRegistry& instance();

  /// Registers a solver under `solver->id()`. Throws std::invalid_argument
  /// on an empty or duplicate id, or an id containing '+' (reserved for
  /// composition suffixes).
  void register_solver(std::shared_ptr<const Solver> solver);

  /// Base-id lookup without composition; nullptr when unknown.
  [[nodiscard]] std::shared_ptr<const Solver> find(const std::string& id) const;

  /// Resolves an id, applying composition suffixes ("+ls"). Throws
  /// std::invalid_argument listing every registered id when the base id is
  /// unknown or a suffix is unsupported.
  [[nodiscard]] std::shared_ptr<const Solver> resolve(const std::string& id) const;

  [[nodiscard]] bool contains(const std::string& id) const;

  /// All registered base ids, sorted.
  [[nodiscard]] std::vector<std::string> ids() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const Solver>> solvers_;
};

/// RAII helper for static self-registration of out-of-tree solvers:
///   static solve::SolverRegistration my_solver{std::make_shared<MySolver>()};
struct SolverRegistration {
  explicit SolverRegistration(std::shared_ptr<const Solver> solver);
};

}  // namespace mf::solve
