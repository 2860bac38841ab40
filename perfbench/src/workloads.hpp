// The four workloads and the per-layer accounting they share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "solve/solver.hpp"

namespace perfbench {

/// Figures 5, 7 and 9 (iid, cache off) through exp::run_sweep.
void run_sweep_heuristic(const Args& args, Tracer& tracer, Report& report);
/// Figures 10 and 12 (the exact `bnb` column) through exp::run_sweep.
void run_sweep_exact(const Args& args, Tracer& tracer, Report& report);
/// An in-process epoll daemon over a memory-over-disk cache, driven
/// open-loop with Poisson arrivals over loopback.
void run_serve_mixed(const Args& args, Tracer& tracer, Report& report);
/// sim::Simulator::run on fixed mappings under three failure families.
void run_sim_campaign(const Args& args, Tracer& tracer, Report& report);

/// Every solver id the workloads run, in report order.
inline const std::vector<std::string>& solver_ids() {
  static const std::vector<std::string> ids{"H1", "H2", "H3", "H4",  "H4w",
                                            "H4f", "oto", "bnb", "H4w+ls"};
  return ids;
}

/// Metric-name form of a solver id: metric names admit no '+'.
[[nodiscard]] std::string metric_id(const std::string& solver_id);

/// Per-solver solve times and the exact solver's node counts, accumulated
/// from the `SolveResult`s the solve layer hands back (diagnostics carry
/// the solver-measured wall time and nodes).
class SolverLedger {
 public:
  void add(const mf::solve::SolveResult& result);
  /// solver.<id>.count/.busy_ms/.p50_ms/.max_ms for every id, plus
  /// solver.bnb.nodes and solver.bnb.proven_share.
  void report(Report& report) const;
  [[nodiscard]] double busy_ms() const;

 private:
  std::map<std::string, std::vector<double>> wall_ms_;
  std::uint64_t bnb_nodes_ = 0;
  std::uint64_t bnb_count_ = 0;
  std::uint64_t bnb_proven_ = 0;
};

}  // namespace perfbench
