// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (sweep_heuristic, sweep_exact, serve_mixed,
// sim_campaign) for about S seconds of measurement after its set-up,
// checks the program's outputs, prints every metric as
// `metric <name> <value> <unit>`, and ends with one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, the same names on
// every workload; with --trace 1 they are the per-layer metrics, measured
// with spans recorded around the library's public calls (written to
// .bench_build/perfbench-work/trace-<workload>-<seed>.jsonl at exit).
// Every result is stamped with the host facts it depends on.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "core/simd.hpp"
#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using WorkloadFn = std::function<void(const Args&, Tracer&, Report&)>;

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table{
      {"sweep_heuristic", run_sweep_heuristic},
      {"sweep_exact", run_sweep_exact},
      {"serve_mixed", run_serve_mixed},
      {"sim_campaign", run_sim_campaign},
  };
  return table;
}

/// Every end-to-end metric and its unit. Every untraced run reports all of
/// them, each measured on the workload's own operation (README.md).
std::vector<std::pair<std::string, std::string>> end_to_end_metrics() {
  return {{"setup_s", "s"},
          {"ops_per_s", "1/s"},
          {"p50_ms", "ms"},
          {"p99_ms", "ms"},
          {"peak_rss_mb", "MiB"}};
}

/// Every per-layer metric and its unit. A traced run reports all of them;
/// a layer the workload does not cross reads 0.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> metrics{
      {"exp.self_ms", "ms"},
      {"exp.trial_success_share", "ratio"},
      {"solve.pool_busy_share", "ratio"},
      {"solve.batch_wall_ms.p50", "ms"},
      {"solve.batch_wall_ms.max", "ms"},
  };
  for (const std::string& id : solver_ids()) {
    const std::string prefix = "solver." + metric_id(id);
    metrics.emplace_back(prefix + ".count", "count");
    metrics.emplace_back(prefix + ".busy_ms", "ms");
    metrics.emplace_back(prefix + ".p50_ms", "ms");
    metrics.emplace_back(prefix + ".max_ms", "ms");
  }
  metrics.emplace_back("solver.bnb.nodes", "count");
  metrics.emplace_back("solver.bnb.proven_share", "ratio");
  for (const char* tier : {"mem", "disk"}) {
    const std::string prefix = std::string("cache.") + tier;
    metrics.emplace_back(prefix + ".lookup_us.p50", "us");
    metrics.emplace_back(prefix + ".lookup_us.p99", "us");
    metrics.emplace_back(prefix + ".insert_us.p50", "us");
    metrics.emplace_back(prefix + ".insert_us.p99", "us");
    metrics.emplace_back(prefix + ".hit_share", "ratio");
  }
  for (const char* name : {"service.solved", "service.cache_hits", "service.dedup_joined"}) {
    metrics.emplace_back(name, "count");
  }
  metrics.emplace_back("service.queue_depth_p99", "count");
  metrics.emplace_back("serve.rejected", "count");
  metrics.emplace_back("serve.daemon_p50_ms", "ms");
  metrics.emplace_back("serve.daemon_p99_ms", "ms");
  metrics.emplace_back("serve.wire_p50_ms", "ms");
  metrics.emplace_back("serve.loop_wakeups_per_req", "ratio");
  for (const char* name : {"sim.events", "sim.events.attempt", "sim.events.fail",
                           "sim.events.repair", "sim.events.shock"}) {
    metrics.emplace_back(name, "count");
  }
  for (const char* family : {"iid", "correlated", "downtime"}) {
    metrics.emplace_back(std::string("sim.ns_per_event.") + family, "ns");
  }
  metrics.emplace_back("sim.allocs_per_campaign", "count");
  metrics.emplace_back("bench.gen_lag_p99_ms", "ms");
  metrics.emplace_back("bench.trace_overhead_share", "ratio");
  return metrics;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--write-reference DIR]\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--write-reference") {
      args.write_reference = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const auto workload = workloads().find(args.workload);
  if (workload == workloads().end()) return usage(("unknown workload " + args.workload).c_str());

  Tracer tracer(args.trace);
  Report report;
  workload->second(args, tracer, report);

  std::map<std::string, bool> present;
  for (const Metric& metric : report.metrics) present[metric.name] = true;
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!present[name]) report.add(name, 0.0, unit);
    }
  } else {
    for (const auto& [name, unit] : end_to_end_metrics()) {
      if (present[name]) continue;
      report.fail_check("end-to-end metric " + name + " was not measured");
      report.add(name, 0.0, unit);
    }
  }
  if (args.trace) {
    const std::string path = std::string(kWorkDir) + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.write(path);
    std::printf("trace %zu spans written to %s\n", tracer.size(), path.c_str());
  }
  if (report.attempted == 0) report.fail_check("no operation was attempted");
  for (Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.fail_check("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }

  report.stamp.emplace(report.stamp.begin(), "build_type", PERFBENCH_BUILD_TYPE);
  report.stamp.emplace(report.stamp.begin(), "isa",
                       mf::core::simd::isa_name(mf::core::simd::active().isa));
  report.stamp.emplace(report.stamp.begin(), "cpu", cpu_model());
  report.stamp.emplace(report.stamp.begin(), "nproc",
                       std::to_string(std::thread::hardware_concurrency()));
  std::string stamp = "{";
  for (const auto& [key, value] : report.stamp) {
    stamp += (stamp.size() > 1 ? ", " : "") + json_string(key) + ": " + json_string(value);
  }
  std::printf("stamp %s}\n", stamp.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const std::string& problem : report.problems) std::printf("check FAILED: %s\n", problem.c_str());
  const double failed_share = report.attempted == 0
                                  ? 0.0
                                  : static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted);
  std::printf("metric failed_share %.6g ratio (%llu of %llu operations)\n", failed_share,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const Metric& metric : report.metrics) {
    std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  std::string metrics;
  for (const Metric& metric : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(metric.name) + ": {\"value\": " + json_number(metric.value) +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
