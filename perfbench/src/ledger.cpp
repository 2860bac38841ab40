#include <numeric>

#include "workloads.hpp"

namespace perfbench {

std::string metric_id(const std::string& solver_id) {
  std::string id = solver_id;
  for (char& c : id) {
    if (c == '+') c = '_';
  }
  return id;
}

void SolverLedger::add(const mf::solve::SolveResult& result) {
  const auto& diagnostics = result.diagnostics;
  // Cache hits and single-flight joins carry the original solve's
  // diagnostics; only real solver invocations count here.
  if (diagnostics.cache_hit || diagnostics.dedup_joined) return;
  wall_ms_[diagnostics.solver_id].push_back(diagnostics.wall_time_ms);
  if (diagnostics.solver_id == "bnb") {
    ++bnb_count_;
    bnb_nodes_ += diagnostics.nodes_explored;
    bnb_proven_ += result.status == mf::solve::Status::kOptimal ? 1 : 0;
  }
}

double SolverLedger::busy_ms() const {
  double total = 0.0;
  for (const auto& [id, times] : wall_ms_) total = std::accumulate(times.begin(), times.end(), total);
  return total;
}

void SolverLedger::report(Report& report) const {
  for (const std::string& id : solver_ids()) {
    const auto it = wall_ms_.find(id);
    const std::vector<double> empty;
    const std::vector<double>& times = it == wall_ms_.end() ? empty : it->second;
    const std::string prefix = "solver." + metric_id(id);
    report.add(prefix + ".count", static_cast<double>(times.size()), "count");
    report.add(prefix + ".busy_ms", std::accumulate(times.begin(), times.end(), 0.0), "ms");
    report.add(prefix + ".p50_ms", median(times), "ms");
    report.add(prefix + ".max_ms", max_of(times), "ms");
  }
  report.add("solver.bnb.nodes", static_cast<double>(bnb_nodes_), "count");
  report.add("solver.bnb.proven_share",
             bnb_count_ == 0 ? 0.0
                             : static_cast<double>(bnb_proven_) / static_cast<double>(bnb_count_),
             "ratio");
}

}  // namespace perfbench
