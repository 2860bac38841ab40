// Exact-solver benchmark, CI-gated: the cost of one branch-and-bound node on
// the paper's exact figures, and the guarantee that a solve's heap
// allocations do not grow with the nodes it explores.
//
// Figures 10 and 12 are where the figure reproduction spends its time, and
// nearly all of it inside `exact::solve_specialized_optimal` ("bnb", the
// figures' MIP column). This bench replays those figures' bnb solves one at
// a time on one thread:
//
//   * every point of fig10 and fig12, scaled down by --scale (3 is the
//     trial scale the end-to-end sweep_exact workload runs), at the
//     figures' own seeds and node budget;
//   * per point, the sweep's sampling protocol: draw `trials` instances,
//     then as many more as proofs are missing, up to `max_trials`. A trial
//     counts when bnb proves its optimum. The heuristic columns never fail
//     on these instances, so at scale 3 this replays exactly the sweep's
//     179 bnb solves (80 for fig10, 99 for fig12).
//
// It reports solves, proven solves, nodes and wall time per figure; ns/node
// is the summed solve wall time over the summed nodes.
//
// Gate (hard failure, exit 1): one budget-exhausting Figure 12 instance,
// solved at max_nodes 10^4 and 10^5, must heap-allocate exactly as often
// at both budgets. The search keeps its candidate lists and bound scratch
// in buffers sized at construction, so ten times the nodes may not buy a
// single allocation. Counted with a global operator-new hook, so timer
// noise cannot trip it. Wall time is reported, never gated.
//
//   bench_exact [--out BENCH_exact.json] [--scale 3]
//
// Deliberately free of the google-benchmark dependency so CI always builds
// and runs it (same policy as bench_kernels and bench_sim).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/simd.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "support/cli.hpp"

#ifndef MF_BUILD_TYPE
#define MF_BUILD_TYPE "unknown"
#endif

// --- Allocation counting ----------------------------------------------------
// Replacing the global allocation functions lets the harness observe every
// heap allocation a solve makes. The counter is a plain atomic so the hook
// itself stays allocation-free. The nothrow forms are replaced too:
// std::stable_sort's temporary buffer comes from them, and under a
// sanitizer runtime that intercepts them they would otherwise allocate
// outside malloc and be freed by the delete below.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using mf::exact::BnBOptions;
using mf::exact::BnBResult;
using mf::exp::SweepSpec;

/// Budgets of the allocation gate: the instance must exhaust both.
constexpr std::uint64_t kGateSmallBudget = 10'000;
constexpr std::uint64_t kGateLargeBudget = 100'000;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FigureResult {
  std::string name;
  std::size_t solves = 0;
  std::size_t proven = 0;
  std::uint64_t nodes = 0;
  double solve_s = 0.0;

  [[nodiscard]] double ns_per_node() const {
    return nodes == 0 ? 0.0 : solve_s * 1e9 / static_cast<double>(nodes);
  }
};

FigureResult replay_figure(const SweepSpec& spec) {
  FigureResult figure;
  figure.name = spec.name;
  BnBOptions options;
  options.max_nodes = mf::exp::kFigureExactNodeBudget;
  for (std::size_t point = 0; point < spec.values.size(); ++point) {
    std::size_t drawn = 0;
    std::size_t proven = 0;
    std::size_t round = spec.trials;
    while (round > 0) {
      for (std::size_t trial = drawn; trial < drawn + round; ++trial) {
        const mf::core::Problem problem = mf::exp::trial_problem(spec, point, trial);
        const double start = now_sec();
        const BnBResult result = mf::exact::solve_specialized_optimal(problem, options);
        figure.solve_s += now_sec() - start;
        figure.nodes += result.nodes;
        ++figure.solves;
        proven += result.proven_optimal ? 1 : 0;
      }
      drawn += round;
      round = proven < spec.trials && drawn < spec.max_trials
                  ? std::min(spec.trials - proven, spec.max_trials - drawn)
                  : 0;
    }
    figure.proven += proven;
  }
  return figure;
}

struct AllocGate {
  std::string instance;
  std::uint64_t allocs_small = 0;
  std::uint64_t allocs_large = 0;
  bool found = false;
};

struct CountedSolve {
  std::uint64_t allocs = 0;
  bool proven = false;
};

CountedSolve counted_solve(const mf::core::Problem& problem, std::uint64_t max_nodes) {
  BnBOptions options;
  options.max_nodes = max_nodes;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BnBResult result = mf::exact::solve_specialized_optimal(problem, options);
  return {g_alloc_count.load(std::memory_order_relaxed) - before, result.proven_optimal};
}

/// The first trial of Figure 12's largest point that exhausts the large
/// budget, solved at both budgets.
AllocGate run_alloc_gate() {
  const SweepSpec spec = mf::exp::figure12_spec();
  const std::size_t point = spec.values.size() - 1;
  AllocGate gate;
  for (std::size_t trial = 0; trial < spec.max_trials && !gate.found; ++trial) {
    const mf::core::Problem problem = mf::exp::trial_problem(spec, point, trial);
    const CountedSolve large = counted_solve(problem, kGateLargeBudget);
    if (large.proven) continue;
    gate.allocs_small = counted_solve(problem, kGateSmallBudget).allocs;
    gate.allocs_large = large.allocs;
    gate.instance = spec.name + "/n" + std::to_string(spec.values[point]) + "/t" +
                    std::to_string(trial);
    gate.found = true;
  }
  return gate;
}

void write_json(const std::string& path, std::size_t scale,
                const std::vector<FigureResult>& figures, const AllocGate& gate) {
  std::ofstream out(path);
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{\n  \"bench\": \"exact\",\n  \"isa\": \"%s\",\n  \"build_type\": \"%s\",\n"
                "  \"scale\": %zu,\n  \"node_budget\": %llu,\n  \"figures\": [\n",
                mf::core::simd::isa_name(mf::core::simd::active().isa), MF_BUILD_TYPE, scale,
                static_cast<unsigned long long>(mf::exp::kFigureExactNodeBudget));
  out << buffer;
  for (std::size_t k = 0; k < figures.size(); ++k) {
    const FigureResult& f = figures[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"figure\": \"%s\", \"solves\": %zu, \"proven\": %zu, "
                  "\"nodes\": %llu, \"solve_s\": %.4f, \"ns_per_node\": %.2f }%s\n",
                  f.name.c_str(), f.solves, f.proven, static_cast<unsigned long long>(f.nodes),
                  f.solve_s, f.ns_per_node(), k + 1 < figures.size() ? "," : "");
    out << buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "  ],\n  \"alloc_gate\": { \"instance\": \"%s\", \"max_nodes_small\": %llu, "
                "\"allocs_small\": %llu, \"max_nodes_large\": %llu, \"allocs_large\": %llu, "
                "\"pass\": %s }\n}\n",
                gate.instance.c_str(), static_cast<unsigned long long>(kGateSmallBudget),
                static_cast<unsigned long long>(gate.allocs_small),
                static_cast<unsigned long long>(kGateLargeBudget),
                static_cast<unsigned long long>(gate.allocs_large),
                gate.found && gate.allocs_small == gate.allocs_large ? "true" : "false");
  out << buffer;
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::string_view(argv[a]) == "--help" || std::string_view(argv[a]) == "-h") {
      std::printf(
          "usage: bench_exact [--out BENCH_exact.json] [--scale 3]\n"
          "\n"
          "Replays the bnb solves of Figures 10 and 12 (trials divided by\n"
          "--scale) serially and reports ns/node per figure. Fails if a\n"
          "budget-exhausting Figure 12 solve heap-allocates a different\n"
          "number of times at max_nodes 10^4 and 10^5.\n");
      return 0;
    }
  }
  const mf::support::CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_exact.json");
  const auto scale = static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("scale", 3)));

  std::printf("exact-solver bench (bnb, serial, scale %zu, %s, %s)\n", scale,
              mf::core::simd::isa_name(mf::core::simd::active().isa), MF_BUILD_TYPE);
  std::printf("| figure | solves | proven |       nodes | solve s | ns/node |\n");
  std::printf("|--------|--------|--------|-------------|---------|---------|\n");
  std::vector<FigureResult> figures;
  for (const SweepSpec& spec : {mf::exp::figure10_spec(), mf::exp::figure12_spec()}) {
    figures.push_back(replay_figure(mf::exp::scaled_down(spec, scale)));
    const FigureResult& f = figures.back();
    std::printf("| %-6s | %6zu | %6zu | %11llu | %7.2f | %7.1f |\n", f.name.c_str(), f.solves,
                f.proven, static_cast<unsigned long long>(f.nodes), f.solve_s,
                f.ns_per_node());
  }

  const AllocGate gate = run_alloc_gate();
  int failures = 0;
  if (!gate.found) {
    std::fprintf(stderr, "FAIL: no Figure 12 trial exhausts %llu nodes\n",
                 static_cast<unsigned long long>(kGateLargeBudget));
    ++failures;
  } else {
    std::printf("\nallocations of %s: %llu at max_nodes %llu, %llu at max_nodes %llu\n",
                gate.instance.c_str(), static_cast<unsigned long long>(gate.allocs_small),
                static_cast<unsigned long long>(kGateSmallBudget),
                static_cast<unsigned long long>(gate.allocs_large),
                static_cast<unsigned long long>(kGateLargeBudget));
    if (gate.allocs_small != gate.allocs_large) {
      std::fprintf(stderr, "FAIL: bnb allocations scale with nodes (%llu vs %llu)\n",
                   static_cast<unsigned long long>(gate.allocs_small),
                   static_cast<unsigned long long>(gate.allocs_large));
      ++failures;
    }
  }

  write_json(out_path, scale, figures, gate);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "\n%d exact bench gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all exact bench gates passed\n");
  return 0;
}
