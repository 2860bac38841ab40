// Heuristic-engine benchmark: the serial cost of one H2 or H3 solve
// (Algorithms 2-3) on the shapes the heuristic figure sweeps run.
//
// H2 and H3 are most of the solver time of the Figure 5/7/9 sweeps. A solve
// is one selector `prepare` (the machine orders) followed by a bisection of
// greedy passes over integer periods. This bench replays, one solve at a
// time on one thread:
//
//   * the first and the last point of Figures 5, 7 and 9, kTrials
//     instances each, drawn at the figures' own seeds as exp::run_sweep
//     draws them;
//   * every instance solved kRepeat times by H2 and by H3.
//
// Per (figure, point, method) it reports microseconds per solve, split into
// the selector's prepare and the bisection's passes (the solve minus a
// prepare timed on its own), and per solve the greedy passes run against
// the midpoints an earlier pass had already decided (skipped). Wall time
// is reported, never gated: runner speed varies.
//
//   bench_heuristics [--out BENCH_heuristics.json]
//
// Deliberately free of the google-benchmark dependency so CI always builds
// and runs it (same policy as bench_exact and bench_kernels).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/simd.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "heuristics/binary_search.hpp"
#include "support/cli.hpp"

#ifndef MF_BUILD_TYPE
#define MF_BUILD_TYPE "unknown"
#endif

namespace {

using mf::exp::SweepSpec;
using mf::heuristics::BisectionCounts;
using mf::heuristics::MachineSelector;

/// Instances per (figure, point), and solves per instance and method.
constexpr std::size_t kTrials = 10;
constexpr std::size_t kRepeat = 10;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ShapeResult {
  std::string figure;
  std::string point;  ///< "first" or "last"
  std::string method;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t p = 0;
  std::size_t solves = 0;
  double solve_s = 0.0;
  double prepare_s = 0.0;
  std::size_t passes = 0;   ///< summed over one solve per instance
  std::size_t skipped = 0;  ///< likewise
  std::size_t instances = 0;

  [[nodiscard]] double us_per_solve() const { return solve_s * 1e6 / static_cast<double>(solves); }
  [[nodiscard]] double us_prepare() const { return prepare_s * 1e6 / static_cast<double>(solves); }
  [[nodiscard]] double passes_per_solve() const {
    return static_cast<double>(passes) / static_cast<double>(instances);
  }
  [[nodiscard]] double skipped_per_solve() const {
    return static_cast<double>(skipped) / static_cast<double>(instances);
  }
};

ShapeResult run_shape(const SweepSpec& spec, std::size_t point, const char* method,
                      MachineSelector& selector, std::uint64_t& checksum) {
  ShapeResult shape;
  shape.figure = spec.name;
  shape.point = point == 0 ? "first" : "last";
  shape.method = method;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const mf::core::Problem problem = mf::exp::trial_problem(spec, point, trial);
    shape.n = problem.task_count();
    shape.m = problem.machine_count();
    shape.p = problem.type_count();

    // A prepare alone, then a full solve, alternating, so a drift in host
    // speed hits both timings alike.
    BisectionCounts counts;
    for (std::size_t r = 0; r < kRepeat; ++r) {
      const double start = now_sec();
      selector.prepare(problem);
      const double prepared = now_sec();
      const auto mapping = mf::heuristics::binary_search_schedule(problem, selector, counts);
      shape.solve_s += now_sec() - prepared;
      shape.prepare_s += prepared - start;
      checksum += mapping.has_value() ? mapping->machine_of(0) + 1 : 0;
    }
    shape.solves += kRepeat;
    shape.passes += counts.passes;
    shape.skipped += counts.skipped;
    ++shape.instances;
  }
  return shape;
}

void write_json(const std::string& path, const std::vector<ShapeResult>& shapes) {
  std::ofstream out(path);
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{\n  \"bench\": \"heuristics\",\n  \"isa\": \"%s\",\n  \"build_type\": \"%s\",\n"
                "  \"trials\": %zu,\n  \"repeat\": %zu,\n  \"shapes\": [\n",
                mf::core::simd::isa_name(mf::core::simd::active().isa), MF_BUILD_TYPE, kTrials,
                kRepeat);
  out << buffer;
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const ShapeResult& s = shapes[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"figure\": \"%s\", \"point\": \"%s\", \"method\": \"%s\", \"n\": %zu, "
                  "\"m\": %zu, \"p\": %zu, \"solves\": %zu, \"us_per_solve\": %.2f, "
                  "\"us_prepare\": %.2f, \"us_passes\": %.2f, \"passes_per_solve\": %.2f, "
                  "\"skipped_per_solve\": %.2f }%s\n",
                  s.figure.c_str(), s.point.c_str(), s.method.c_str(), s.n, s.m, s.p, s.solves,
                  s.us_per_solve(), s.us_prepare(), s.us_per_solve() - s.us_prepare(),
                  s.passes_per_solve(), s.skipped_per_solve(),
                  k + 1 < shapes.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::string_view(argv[a]) == "--help" || std::string_view(argv[a]) == "-h") {
      std::printf(
          "usage: bench_heuristics [--out BENCH_heuristics.json]\n"
          "\n"
          "Solves the first and last points of Figures 5, 7 and 9 (%zu\n"
          "instances each, every one %zu times) with H2 and H3 serially,\n"
          "and reports microseconds per solve split into prepare and passes,\n"
          "plus greedy passes run and midpoints skipped per solve.\n",
          kTrials, kRepeat);
      return 0;
    }
  }
  const mf::support::CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_heuristics.json");

  std::printf("heuristic bench (H2/H3, serial, %zu trials x %zu repeats, %s, %s)\n", kTrials,
              kRepeat, mf::core::simd::isa_name(mf::core::simd::active().isa), MF_BUILD_TYPE);
  std::printf("| figure | point | method |   n |   m |   p | us/solve | prepare |  passes "
              "| passes run | skipped |\n");
  std::printf("|--------|-------|--------|-----|-----|-----|----------|---------|---------"
              "|------------|---------|\n");
  std::vector<ShapeResult> shapes;
  std::uint64_t checksum = 0;
  for (const SweepSpec& spec :
       {mf::exp::figure5_spec(), mf::exp::figure7_spec(), mf::exp::figure9_spec()}) {
    for (const std::size_t point : {std::size_t{0}, spec.values.size() - 1}) {
      mf::heuristics::RankSelector rank;
      mf::heuristics::HeterogeneitySelector heterogeneity;
      shapes.push_back(run_shape(spec, point, "H2", rank, checksum));
      shapes.push_back(run_shape(spec, point, "H3", heterogeneity, checksum));
      for (auto s = shapes.end() - 2; s != shapes.end(); ++s) {
        std::printf("| %-6s | %-5s | %-6s | %3zu | %3zu | %3zu | %8.1f | %7.1f | %7.1f "
                    "| %10.2f | %7.2f |\n",
                    s->figure.c_str(), s->point.c_str(), s->method.c_str(), s->n, s->m, s->p,
                    s->us_per_solve(), s->us_prepare(), s->us_per_solve() - s->us_prepare(),
                    s->passes_per_solve(), s->skipped_per_solve());
      }
    }
  }

  write_json(out_path, shapes);
  std::printf("\nchecksum %llu\nwrote %s\n", static_cast<unsigned long long>(checksum),
              out_path.c_str());
  return 0;
}
