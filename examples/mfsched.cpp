// mfsched — command-line scheduler for micro-factory problem files.
//
// The batch workflow a production engineer would actually run: load a
// problem file (the core/io.hpp text format, e.g. produced by a
// calibration campaign), solve it with any solver from the unified
// registry, optionally refine and simulate, and save the mapping.
//
//   mfsched <problem-file> [--method ID] [--refine] [--simulate N]
//           [--budget NODES] [--out mapping-file] [--seed S] [--cache MODE]
//           [--cache-dir DIR] [--cache-stats]
//   mfsched --list | --list-scenarios
//   mfsched --figure NAME [--scenario ID] [--scale K] [--cache MODE]
//           [--cache-dir DIR] [--cache-stats]
//           [--repeat R] [--shard i/N [--out shard-file]]
//   mfsched --merge <shard-file>...
//   mfsched --dispatch N --figure NAME [--launcher local|cmd:<template>]
//           [--retries K] [--dispatch-dir DIR] [--dispatch-timeout SECONDS]
//   mfsched --cache-gc SIZE --cache-dir DIR
//   mfsched --serve-demo [--requests N] [--distinct K] [--method ID]
//           [--cache-dir DIR]
//
// `--dispatch N` is the hands-off spelling of a shard+merge campaign: it
// launches N `mfsched --shard i/N` worker processes (locally by fork/exec,
// or through a `--launcher cmd:<template>` shell wrapper for ssh-style
// remotes), supervises them, retries failed or wedged shards up to
// `--retries` times each, collects the shard files under `--dispatch-dir`,
// and merges — the resulting table is byte-identical to the unsharded run.
// `--cache-gc SIZE` shrinks a shared `--cache-dir` to the byte cap,
// evicting least-recently-used entries first, so long campaigns can point
// every worker at one directory indefinitely.
//
// `--method` accepts every registered solver id (try `--list`): the paper
// heuristics H1..H4f, the exact solvers bnb / brute, the one-to-one
// solver oto, and "+ls" composites such as H4w+ls. `exact` stays as an
// alias for bnb. `--refine` is shorthand for appending "+ls".
//
// `--figure` runs one sweep (the paper's fig05..fig12 plus the per-model
// scn-* sweeps) through the one execution engine. `--scenario` swaps the
// failure regime instances are drawn under (try `--list-scenarios`):
// solvers plan against the model's effective rates and the table reports
// model-adjusted analytic periods. `--shard i/N` evaluates only shard i's
// deterministic slice of the (point, trial) pairs and writes a shard file;
// `--merge` recombines one file per shard into the complete result —
// bit-identical to the unsharded run.
//
// Caching: `--cache off|read|rw` sets the result-cache policy; with rw, a
// `--repeat`ed sweep re-solves nothing (the printed hit counters prove it).
// `--cache-dir DIR` layers the in-memory cache over a persistent on-disk
// store: results survive the process, so a FRESH mfsched pointed at a
// populated directory re-solves zero instances, and shard processes on one
// host can share a directory. `--cache-stats` prints the backend's
// hit/miss/eviction counters plus the solve-service counters (requests,
// cache hits, in-flight dedup joins, actual solver invocations) after any
// run.
//
// `--serve-demo` exercises the async service the way a scheduler server
// would: it submits a stream of N concurrent requests over K distinct
// problems to `solve::SolveService` and proves single-flight deduplication
// — at most one solver invocation per distinct request identity, duplicate
// answers bit-identical — with the counters to show who was answered by a
// shared flight vs. the cache.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/io.hpp"
#include "exp/dispatch.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/sweep_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "solve/solver.hpp"
#include "solve/tiered_cache.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

int usage(const char* program) {
  std::printf(
      "usage: %s <problem-file> [--method ID] [--refine] [--simulate N]\n"
      "          [--budget NODES] [--out FILE] [--seed S] [--cache off|read|rw]\n"
      "          [--cache-dir DIR] [--cache-stats]\n"
      "       %s --list | --list-scenarios\n"
      "       %s --demo [--tasks N --machines M --types P --seed S]\n"
      "       %s --figure NAME [--scenario ID] [--scale K] [--cache MODE]\n"
      "          [--cache-dir DIR] [--cache-stats]\n"
      "          [--repeat R] [--shard i/N [--out shard-file]]\n"
      "       %s --merge <shard-file>...\n"
      "       %s --dispatch N --figure NAME [--launcher local|cmd:<template>]\n"
      "          [--retries K] [--dispatch-dir DIR] [--dispatch-timeout SECONDS]\n"
      "          [--inject-shard-failure I] [--scale K] [--scenario ID] [--seed S]\n"
      "          [--cache MODE] [--cache-dir DIR] [--out FILE]\n"
      "       %s --cache-gc SIZE [--cache-gc-ttl AGE] --cache-dir DIR\n"
      "       %s --serve-demo [--requests N] [--distinct K] [--method ID]\n"
      "          [--cache-dir DIR]\n"
      "       %s --serve PORT [--threads N]\n"
      "          [--max-pending N] [--rate-limit BURST] [--rate-refill PER_SEC]\n"
      "          [--idle-timeout SECONDS] [--cache-gc-interval DUR]\n"
      "          [--port-file FILE] [--cache-dir DIR]\n"
      "       %s --connect HOST:PORT (--figure NAME | <problem-file> | --serve-stats)\n"
      "          [--client-id ID] [--connections N]\n"
      "       %s --help\n"
      "--list            prints every registered solver id\n"
      "--list-scenarios  prints every registered failure-model scenario id\n"
      "--demo            writes demo_problem.txt instead of scheduling\n"
      "--figure          runs a figure sweep (%s)\n"
      "--scenario        draws the sweep's instances under this failure model (%s)\n"
      "--shard           runs only slice i of N and writes a shard file for --merge\n"
      "--merge           recombines shard files into the full sweep table\n"
      "--dispatch        launches N shard worker processes, supervises them,\n"
      "                  retries failures (--retries per shard, --dispatch-timeout\n"
      "                  kills wedged workers), and merges — byte-identical to the\n"
      "                  unsharded table; --launcher cmd:<template> wraps each\n"
      "                  worker command ({CMD}) for ssh/k8s-style remotes\n"
      "--cache-dir       persistent on-disk result cache layered under memory\n"
      "                  (implies --cache rw unless overridden); a fresh process\n"
      "                  pointed at a populated dir re-solves nothing\n"
      "--cache-gc        shrinks --cache-dir to SIZE bytes (K/M/G suffixes),\n"
      "                  evicting least-recently-used entries first\n"
      "--cache-gc-ttl    also expires entries unused for AGE (s/m/h/d suffixes,\n"
      "                  e.g. 36h, 7d); usable alone or with --cache-gc\n"
      "--cache-stats     prints cache + solve-service counters after the run\n"
      "--serve-demo      concurrent request replay proving single-flight dedup\n"
      "--serve           runs the scheduler daemon on PORT (0 = ephemeral; loopback\n"
      "                  only); SIGTERM drains gracefully — stop accepting, finish\n"
      "                  in-flight solves, report final counters\n"
      "--idle-timeout    close connections idle for SECONDS (no completed frame,\n"
      "                  no flushed response; 0 = never); frame-accurate, so a\n"
      "                  client dribbling bytes cannot reset the clock\n"
      "--cache-gc-interval  run disk-cache GC inside the daemon every DUR\n"
      "                  (s/m/h/d suffixes) on the reactor's timer queue; the cap\n"
      "                  and TTL come from --cache-gc SIZE / --cache-gc-ttl AGE;\n"
      "                  needs --cache-dir\n"
      "--max-pending     daemon admission cap: solves in flight across all clients\n"
      "                  before new ones are refused with queue-full\n"
      "--rate-limit      per-client token bucket: burst capacity in requests\n"
      "                  (0 = unlimited); --rate-refill tokens/second restored\n"
      "--rate-refill     see --rate-limit\n"
      "--port-file       daemon writes its bound port here once listening\n"
      "--threads         daemon solver-pool width (default: hardware concurrency)\n"
      "--connect         sends work to a daemon instead of solving in-process:\n"
      "                  --figure runs the sweep remotely (bit-identical table),\n"
      "                  a problem file solves one instance, --serve-stats prints\n"
      "                  the daemon's live counters\n"
      "--serve-stats     with --connect: fetch and print the daemon's stats\n"
      "--client-id       client identity for the daemon's rate limiter\n"
      "--connections     parallel connections --connect uses for a sweep\n"
      "--fail-marker     testing hook: fail the run once, creating FILE; a rerun\n"
      "                  that finds FILE proceeds (exercises dispatch retries)\n"
      "--inject-shard-failure  testing hook: pass --fail-marker to shard I's\n"
      "                  first dispatch attempt\n",
      program, program, program, program, program, program, program, program, program,
      program, program, mf::exp::figure_spec_names().c_str(),
      mf::exp::scenario_ids().c_str());
  return 2;
}

int list_solvers() {
  const auto& registry = mf::solve::SolverRegistry::instance();
  std::printf("registered solvers (append \"+ls\" for local-search refinement):\n");
  for (const std::string& id : registry.ids()) {
    std::printf("  %-6s %s\n", id.c_str(), registry.resolve(id)->description().c_str());
  }
  return 0;
}

int list_scenarios() {
  const auto& registry = mf::exp::ScenarioRegistry::instance();
  std::printf("registered failure-model scenarios (use with --figure NAME --scenario ID):\n");
  for (const std::string& id : registry.ids()) {
    std::printf("  %-13s %s\n", id.c_str(), registry.resolve(id)->description().c_str());
  }
  return 0;
}

mf::solve::CachePolicy parse_cache_flag(const mf::support::CliArgs& args) {
  // --cache-dir without an explicit --cache policy implies read-write: a
  // persistent store that nothing writes to or reads from would make the
  // flag silently inert. --connect implies it too: the cache lives in the
  // daemon, and requests stamped `off` would bypass it — repeats against a
  // warm daemon must cost zero solves unless the client opts out.
  const char* fallback = (args.has("cache-dir") || args.has("connect")) ? "rw" : "off";
  const std::string text = args.get("cache", fallback);
  const auto policy = mf::solve::cache_policy_from_string(text);
  if (!policy.has_value()) {
    std::fprintf(stderr, "error: unknown --cache mode '%s' (off, read, rw)\n", text.c_str());
    std::exit(2);
  }
  if (*policy == mf::solve::CachePolicy::kOff && args.has("cache-dir")) {
    std::fprintf(stderr,
                 "warning: --cache off makes --cache-dir inert (nothing is read or stored)\n");
  }
  return *policy;
}

/// The one spelling of the service counter line — CI and docs grep it
/// ("solved 0$"), so every mode must print it through this helper.
void print_service_line(const mf::solve::ServiceStats& delta) {
  std::printf(
      "service: submitted %llu, cache hits %llu, in-flight dedup %llu, rejected %llu "
      "queue-full / %llu rate-limited, solved %llu\n",
      static_cast<unsigned long long>(delta.submitted),
      static_cast<unsigned long long>(delta.cache_hits),
      static_cast<unsigned long long>(delta.dedup_joined),
      static_cast<unsigned long long>(delta.rejected_queue_full),
      static_cast<unsigned long long>(delta.rejected_rate_limited),
      static_cast<unsigned long long>(delta.solved));
}

/// Builds the cache backend a run solves against — the process-wide
/// in-memory cache, optionally layered over a persistent --cache-dir store
/// — and prints counter deltas for it. One scope spans one logical run, so
/// `print_delta` reports what THIS run did, not process history.
class CacheScope {
 public:
  explicit CacheScope(const mf::support::CliArgs& args) {
    const std::string dir = args.get("cache-dir", "");
    if (!dir.empty()) {
      disk_.emplace(dir);
      tiered_.emplace(mf::solve::ResultCache::global(), *disk_);
      backend_ = &*tiered_;
    } else {
      backend_ = &mf::solve::ResultCache::global();
    }
    reset_baseline();
  }

  [[nodiscard]] mf::solve::CacheBackend* backend() noexcept { return backend_; }

  /// The persistent tier itself, when --cache-dir built one — the daemon's
  /// GC timer needs the `DiskCache` (gc() is not part of `CacheBackend`).
  [[nodiscard]] mf::solve::DiskCache* disk() noexcept {
    return disk_.has_value() ? &*disk_ : nullptr;
  }

  /// Re-anchors the deltas (e.g. between --repeat rounds).
  void reset_baseline() {
    cache_before_ = backend_->stats();
    service_before_ = mf::solve::SolveService::process_stats();
  }

  void print_delta() const {
    const mf::solve::CacheStats now = backend_->stats();
    const mf::solve::ServiceStats service = mf::solve::SolveService::process_stats();
    std::printf(
        "cache [%s]: %llu hits / %llu misses (%.1f%% hit rate), %llu evictions, "
        "%zu resident",
        backend_->describe().c_str(),
        static_cast<unsigned long long>(now.hits - cache_before_.hits),
        static_cast<unsigned long long>(now.misses - cache_before_.misses),
        100.0 * delta_hit_rate(now),
        static_cast<unsigned long long>(now.evictions - cache_before_.evictions),
        now.size);
    // Entry/byte totals only exist for persistent backends; keep the
    // memory-only line unchanged.
    if (now.bytes > 0) {
      std::printf(" (%llu bytes on disk)", static_cast<unsigned long long>(now.bytes));
    }
    std::printf("\n");
    mf::solve::ServiceStats delta;
    delta.submitted = service.submitted - service_before_.submitted;
    delta.cache_hits = service.cache_hits - service_before_.cache_hits;
    delta.dedup_joined = service.dedup_joined - service_before_.dedup_joined;
    delta.rejected_queue_full =
        service.rejected_queue_full - service_before_.rejected_queue_full;
    delta.rejected_rate_limited =
        service.rejected_rate_limited - service_before_.rejected_rate_limited;
    delta.solved = service.solved - service_before_.solved;
    print_service_line(delta);
  }

 private:
  [[nodiscard]] double delta_hit_rate(const mf::solve::CacheStats& now) const {
    mf::solve::CacheStats delta;
    delta.hits = now.hits - cache_before_.hits;
    delta.misses = now.misses - cache_before_.misses;
    return delta.hit_rate();
  }

  std::optional<mf::solve::DiskCache> disk_;
  std::optional<mf::solve::TieredCache> tiered_;
  mf::solve::CacheBackend* backend_ = nullptr;
  mf::solve::CacheStats cache_before_;
  mf::solve::ServiceStats service_before_;
};

/// Cache counters print when the run used the cache or the user asked.
bool wants_cache_stats(const mf::support::CliArgs& args, mf::solve::CachePolicy policy) {
  return args.has("cache-stats") || policy != mf::solve::CachePolicy::kOff;
}

void print_sweep(const mf::exp::SweepResult& result) {
  std::printf("%s\n", result.to_table().to_string().c_str());
  std::printf("%s\n", result.to_chart().c_str());
}

/// The one spelling of a sweep's `--out` file. The unsharded and the
/// dispatched path must write identical bytes — CI diffs their files to
/// prove campaign bit-exactness — so both funnel through this helper.
bool write_sweep_file(const mf::exp::SweepResult& result, const std::string& out) {
  std::ofstream file(out);
  file << result.to_table().to_string() << "\n" << result.to_chart() << "\n";
  file.flush();
  if (!file.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return false;
  }
  std::printf("table written to %s\n", out.c_str());
  return true;
}

/// Reads a positive integer flag, clamping zero/negative values to 1 (a
/// negative value cast to size_t would otherwise mean ~2^64 repeats).
std::size_t get_positive(const mf::support::CliArgs& args, const std::string& name) {
  return static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int(name, 1)));
}

/// Testing hook for the dispatcher's retry path: `--fail-marker FILE` makes
/// the run fail once — the first process to see a missing FILE creates it
/// and exits nonzero; a retry finds the marker and proceeds normally.
bool injected_failure_fires(const mf::support::CliArgs& args) {
  const std::string marker = args.get("fail-marker", "");
  if (marker.empty() || marker == "true") return false;
  std::error_code ec;
  if (std::filesystem::exists(marker, ec)) return false;
  std::ofstream(marker).flush();
  std::fprintf(stderr, "injected failure: created marker %s and aborting this attempt\n",
               marker.c_str());
  return true;
}

int run_figure(const mf::support::CliArgs& args) {
  if (injected_failure_fires(args)) return 1;
  const std::string name = args.get("figure", "");
  std::optional<mf::exp::SweepSpec> found = mf::exp::figure_spec_by_name(name);
  if (!found.has_value()) {
    std::fprintf(stderr, "error: unknown figure '%s' (%s)\n", name.c_str(),
                 mf::exp::figure_spec_names().c_str());
    return 2;
  }
  mf::exp::SweepSpec spec = *std::move(found);
  const std::size_t scale = get_positive(args, "scale");
  if (scale > 1) spec = mf::exp::scaled_down(spec, scale);
  // --seed overrides the spec's fixed base seed for independent
  // replications; all shards of one campaign must then share the value.
  if (args.has("seed")) {
    spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  }
  // --scenario re-draws the figure's instances under another failure model;
  // all shards of one campaign must share the id (merge() enforces it).
  if (args.has("scenario")) {
    const std::string scenario = args.get("scenario", "");
    if (!mf::exp::ScenarioRegistry::instance().contains(scenario)) {
      std::fprintf(stderr, "error: unknown scenario '%s' (%s)\n", scenario.c_str(),
                   mf::exp::scenario_ids().c_str());
      return 2;
    }
    spec.scenario_id = scenario;
  }

  mf::exp::SweepOptions options;
  options.cache = parse_cache_flag(args);
  CacheScope cache_scope(args);
  options.backend = cache_scope.backend();
  // --connect reroutes every solve of the sweep to a scheduler daemon; the
  // table is bit-identical either way (content-addressed seeds, canonical
  // wire round-trip), so remote is purely an execution choice.
  std::optional<mf::serve::RemoteExecutor> remote;
  if (args.has("connect")) {
    const auto target = mf::serve::parse_host_port(args.get("connect", ""));
    if (!target.has_value()) {
      std::fprintf(stderr, "error: --connect expects HOST:PORT\n");
      return 2;
    }
    mf::serve::RemoteExecutorOptions remote_options;
    remote_options.host = target->first;
    remote_options.port = target->second;
    remote_options.connections = static_cast<std::size_t>(args.get_int("connections", 0));
    remote_options.client_id = args.get("client-id", "mfsched");
    remote.emplace(std::move(remote_options));
    options.executor = &*remote;
  }
  const std::string shard_text = args.get("shard", "");
  if (!shard_text.empty()) {
    unsigned long long index = 0;
    unsigned long long count = 0;
    if (std::sscanf(shard_text.c_str(), "%llu/%llu", &index, &count) != 2 || count < 2 ||
        index >= count) {
      std::fprintf(stderr, "error: --shard expects i/N with 0 <= i < N and N >= 2\n");
      return 2;
    }
    options.shard = {static_cast<std::size_t>(index), static_cast<std::size_t>(count)};
  }

  mf::support::ThreadPool pool;
  std::printf("=== %s: %s ===\n", spec.name.c_str(), spec.description.c_str());
  std::printf("scenario: %s; failure model '%s'; sweep over %s; %zu trials/point; cache %s\n",
              spec.base.describe().c_str(), spec.scenario_id.c_str(),
              mf::exp::to_string(spec.variable).c_str(), spec.trials,
              mf::solve::to_string(options.cache).c_str());

  if (options.shard.is_sharded()) {
    if (args.get_int("repeat", 1) != 1) {
      std::fprintf(stderr, "error: --repeat cannot be combined with --shard\n");
      return 2;
    }
    const mf::exp::SweepResult result = mf::exp::run_sweep(spec, options, &pool);
    std::string out = args.get("out", "");
    if (out.empty()) {
      out = spec.name + ".shard" + std::to_string(options.shard.index) + "-of-" +
            std::to_string(options.shard.count) + ".txt";
    }
    try {
      mf::exp::save_sweep_shard(result, out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    std::size_t outcomes = 0;
    for (const mf::exp::PointResult& point : result.points) {
      outcomes += point.trial_outcomes.size();
    }
    std::printf("shard %zu/%zu: %zu trial outcomes over %zu points written to %s\n",
                options.shard.index, options.shard.count, outcomes, result.points.size(),
                out.c_str());
    if (wants_cache_stats(args, options.cache) && !remote.has_value()) {
      cache_scope.print_delta();
    }
    return 0;
  }

  const std::size_t repeat = get_positive(args, "repeat");
  const std::string out = args.get("out", "");
  for (std::size_t round = 0; round < repeat; ++round) {
    if (repeat > 1) std::printf("--- run %zu of %zu ---\n", round + 1, repeat);
    cache_scope.reset_baseline();
    const mf::exp::SweepResult result = mf::exp::run_sweep(spec, options, &pool);
    print_sweep(result);
    // Remote runs execute in the daemon, where the cache and its counters
    // live; the local scope would read all-zero. --serve-stats reports them.
    if (wants_cache_stats(args, options.cache) && !remote.has_value()) {
      cache_scope.print_delta();
    }
    if (!out.empty() && !write_sweep_file(result, out)) return 1;
  }
  return 0;
}

/// The scheduler-service rehearsal: replay a stream of concurrent requests
/// — N submissions over K distinct request identities — through
/// `SolveService::submit` and verify the service's contract: at most one
/// solver invocation per distinct identity (single-flight dedup plus cache
/// population), every duplicate answer bit-identical to its leader's.
int run_serve_demo(const mf::support::CliArgs& args) {
  const std::size_t total =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("requests", 64)));
  const std::size_t distinct = std::min(
      total, static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("distinct", 8))));
  const std::string method = args.get("method", "H4w+ls");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  CacheScope cache_scope(args);
  mf::support::ThreadPool pool;
  mf::solve::SolveService service(&pool, cache_scope.backend());

  // Instances sized so one solve takes long enough that later duplicates
  // genuinely arrive mid-flight (H4w+ls runs a refinement stage), but a
  // 64-request demo still finishes in well under a second.
  std::vector<std::shared_ptr<const mf::core::Problem>> problems;
  problems.reserve(distinct);
  for (std::size_t k = 0; k < distinct; ++k) {
    mf::exp::Scenario scenario;
    scenario.tasks = 120;
    scenario.machines = 12;
    scenario.types = 4;
    problems.push_back(std::make_shared<const mf::core::Problem>(
        mf::exp::generate(scenario, seed + k)));
  }

  std::printf("serve-demo: %zu concurrent requests over %zu distinct identities, "
              "method %s, backend %s\n",
              total, distinct, method.c_str(), cache_scope.backend()->describe().c_str());

  std::vector<std::future<mf::solve::SolveResult>> futures;
  futures.reserve(total);
  try {
    for (std::size_t i = 0; i < total; ++i) {
      mf::solve::SolveRequest request;
      // Round-robin over the identities: the first `distinct` submissions
      // become flight leaders, the rest land mid-flight (dedup) or after a
      // flight completed (cache hit). Either way: no second solve.
      request.problem = problems[i % distinct];
      request.solver_id = method;
      request.params.seed = seed;
      request.params.cache = mf::solve::CachePolicy::kReadWrite;
      futures.push_back(service.submit(std::move(request)));
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  std::vector<mf::solve::SolveResult> results;
  results.reserve(total);
  for (auto& future : futures) results.push_back(future.get());

  // Every answer for one identity must be bit-identical to its first
  // answer — shared flights and cache hits return exactly the result the
  // solver computed once.
  std::size_t mismatches = 0;
  for (std::size_t i = distinct; i < total; ++i) {
    const mf::solve::SolveResult& first = results[i % distinct];
    const mf::solve::SolveResult& later = results[i];
    const bool identical =
        later.status == first.status && later.mapping == first.mapping &&
        std::memcmp(&later.period, &first.period, sizeof(double)) == 0;
    if (!identical) ++mismatches;
  }

  // A fresh service instance starts at zero, so its stats ARE the delta.
  const mf::solve::ServiceStats stats = service.stats();
  print_service_line(stats);
  if (stats.solved > distinct) {
    std::fprintf(stderr, "FAIL: %llu solver invocations for %zu distinct identities\n",
                 static_cast<unsigned long long>(stats.solved), distinct);
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu duplicate answers differ from their leader\n",
                 mismatches);
    return 1;
  }
  std::printf("ok: every duplicate shared its leader's solve, %zu/%zu answers "
              "bit-identical\n",
              total - distinct, total - distinct);
  return 0;
}

/// Parses "4096", "512K", "64M", "2G" into bytes; nullopt on anything else
/// — including negative values (strtoull would silently wrap them) and
/// values whose suffix multiplication overflows 64 bits (a wrapped cap
/// would make gc delete nearly everything).
std::optional<std::uint64_t> parse_size_bytes(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  const std::string suffix(end);
  std::uint64_t multiplier = 1;
  if (suffix == "K" || suffix == "k") {
    multiplier = 1024ull;
  } else if (suffix == "M" || suffix == "m") {
    multiplier = 1024ull * 1024;
  } else if (suffix == "G" || suffix == "g") {
    multiplier = 1024ull * 1024 * 1024;
  } else if (!suffix.empty()) {
    return std::nullopt;
  }
  if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value) * multiplier;
}

/// Parses "90s", "30m", "36h", "7d" (bare digits = seconds) into a
/// duration; nullopt on anything else, including multiplications that
/// overflow (a wrapped TTL would expire everything).
std::optional<std::chrono::seconds> parse_age_seconds(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  const std::string suffix(end);
  std::uint64_t multiplier = 1;
  if (suffix == "m") {
    multiplier = 60;
  } else if (suffix == "h") {
    multiplier = 3600;
  } else if (suffix == "d") {
    multiplier = 86400;
  } else if (!suffix.empty() && suffix != "s") {
    return std::nullopt;
  }
  if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    return std::nullopt;
  }
  return std::chrono::seconds(static_cast<std::int64_t>(value * multiplier));
}

/// `--cache-gc SIZE --cache-dir DIR`: shrink the persistent store to the
/// cap, evicting least-recently-used entries (LRU by mtime; lookups
/// refresh it), so long campaigns can share one directory indefinitely.
/// `--cache-gc-ttl AGE` adds (or stands alone as) the TTL sweep: entries
/// unused for longer than AGE go regardless of the cap.
int run_cache_gc(const mf::support::CliArgs& args) {
  const std::string dir = args.get("cache-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: --cache-gc needs --cache-dir DIR\n");
    return 2;
  }
  // --cache-gc-ttl alone means "expire by age, cap nothing".
  std::uint64_t cap_bytes = std::numeric_limits<std::uint64_t>::max();
  if (args.has("cache-gc")) {
    const std::optional<std::uint64_t> cap = parse_size_bytes(args.get("cache-gc", ""));
    if (!cap.has_value()) {
      std::fprintf(stderr, "error: --cache-gc expects a size like 64M (K/M/G suffixes)\n");
      return 2;
    }
    cap_bytes = *cap;
  }
  std::chrono::seconds max_age = std::chrono::seconds::zero();
  if (args.has("cache-gc-ttl")) {
    const std::optional<std::chrono::seconds> age =
        parse_age_seconds(args.get("cache-gc-ttl", ""));
    if (!age.has_value()) {
      std::fprintf(stderr,
                   "error: --cache-gc-ttl expects an age like 36h or 7d (s/m/h/d)\n");
      return 2;
    }
    max_age = *age;
  }
  try {
    mf::solve::DiskCache cache(dir);
    const mf::solve::DiskGcReport report = cache.gc(cap_bytes, max_age);
    std::printf(
        "cache-gc [%s]: cap %llu bytes; kept %zu entries (%llu bytes), removed %zu "
        "entries (%llu bytes, %zu expired by ttl), swept %zu stale temp files\n",
        cache.describe().c_str(), static_cast<unsigned long long>(cap_bytes),
        report.entries_kept, static_cast<unsigned long long>(report.bytes_kept),
        report.entries_removed, static_cast<unsigned long long>(report.bytes_removed),
        report.entries_expired, report.stale_temps_removed);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

/// Self-pipe for the daemon's graceful shutdown: a signal handler may only
/// do async-signal-safe work, so it writes one byte here and the serve
/// loop — blocked reading the other end — runs the actual drain.
int g_drain_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const auto ignored = ::write(g_drain_pipe[1], &byte, 1);
}

/// `--serve PORT`: run the scheduler daemon until SIGTERM/SIGINT, then
/// drain — stop accepting, refuse new solves, finish and flush what is in
/// flight — and report the final counters.
int run_serve(const mf::support::CliArgs& args) {
  const std::int64_t port = args.get_int("serve", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --serve expects a port in [0, 65535] (0 = ephemeral)\n");
    return 2;
  }
  CacheScope cache_scope(args);
  mf::serve::DaemonOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.threads = static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("threads", 0)));
  options.max_pending =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("max-pending", 256)));
  options.rate_capacity = args.get_double("rate-limit", 0.0);
  options.rate_refill_per_sec = args.get_double("rate-refill", 1.0);
  options.cache = cache_scope.backend();
  options.idle_timeout_seconds = args.get_double("idle-timeout", 0.0);

  if (args.has("cache-gc-interval")) {
    const std::optional<std::chrono::seconds> interval =
        parse_age_seconds(args.get("cache-gc-interval", ""));
    if (!interval.has_value() || interval->count() <= 0) {
      std::fprintf(stderr,
                   "error: --cache-gc-interval expects a positive duration like 30s or "
                   "15m (s/m/h/d)\n");
      return 2;
    }
    if (cache_scope.disk() == nullptr) {
      std::fprintf(stderr, "error: --cache-gc-interval needs --cache-dir DIR\n");
      return 2;
    }
    options.cache_gc_interval_seconds = static_cast<double>(interval->count());
    options.gc_disk = cache_scope.disk();
    if (args.has("cache-gc")) {
      const std::optional<std::uint64_t> cap = parse_size_bytes(args.get("cache-gc", ""));
      if (!cap.has_value()) {
        std::fprintf(stderr,
                     "error: --cache-gc expects a size like 64M (K/M/G suffixes)\n");
        return 2;
      }
      options.gc_max_bytes = *cap;
    }
    if (args.has("cache-gc-ttl")) {
      const std::optional<std::chrono::seconds> age =
          parse_age_seconds(args.get("cache-gc-ttl", ""));
      if (!age.has_value()) {
        std::fprintf(stderr,
                     "error: --cache-gc-ttl expects an age like 36h or 7d (s/m/h/d)\n");
        return 2;
      }
      options.gc_max_age_seconds = static_cast<std::uint64_t>(age->count());
    }
  }

  mf::serve::Daemon daemon(options);
  try {
    daemon.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::printf("serve: listening on 127.0.0.1:%u (max pending %zu, rate limit %s)\n",
              static_cast<unsigned>(daemon.port()), options.max_pending,
              options.rate_capacity > 0.0
                  ? (std::to_string(options.rate_capacity) + " burst").c_str()
                  : "off");
  std::fflush(stdout);

  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    // Written only once the socket listens: a supervisor polling for this
    // file never reads a port that isn't accepting yet.
    std::ofstream out(port_file);
    out << daemon.port() << "\n";
  }

  if (::pipe(g_drain_pipe) != 0) {
    std::fprintf(stderr, "error: pipe() failed\n");
    return 1;
  }
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  char byte = 0;
  while (::read(g_drain_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("serve: draining (finishing in-flight solves)\n");
  std::fflush(stdout);
  daemon.drain();
  daemon.wait();

  const mf::serve::DaemonStatsSnapshot stats = daemon.stats_snapshot();
  std::printf("serve: drained; %llu connections served, %llu requests completed, "
              "latency p50 %.3f ms / p99 %.3f ms\n",
              static_cast<unsigned long long>(stats.connections_total),
              static_cast<unsigned long long>(stats.service.completed),
              stats.latency_p50_ms, stats.latency_p99_ms);
  std::printf("serve: loop %llu wakeups, %llu timers fired, %llu idle closes, "
              "%llu bytes backpressured\n",
              static_cast<unsigned long long>(stats.loop_wakeups),
              static_cast<unsigned long long>(stats.loop_timers_fired),
              static_cast<unsigned long long>(stats.idle_closes),
              static_cast<unsigned long long>(stats.backpressure_bytes));
  if (options.cache_gc_interval_seconds > 0.0) {
    std::printf("serve: gc %llu runs, %llu entries removed (%llu bytes)\n",
                static_cast<unsigned long long>(stats.gc_runs),
                static_cast<unsigned long long>(stats.gc_entries_removed),
                static_cast<unsigned long long>(stats.gc_bytes_removed));
  }
  cache_scope.print_delta();
  return 0;
}

/// `--connect HOST:PORT --serve-stats`: print a live daemon's counters.
int run_remote_stats(const mf::support::CliArgs& args) {
  const auto target = mf::serve::parse_host_port(args.get("connect", ""));
  if (!target.has_value()) {
    std::fprintf(stderr, "error: --serve-stats needs --connect HOST:PORT\n");
    return 2;
  }
  try {
    mf::serve::Client client(target->first, target->second);
    const std::optional<mf::serve::DaemonStatsSnapshot> stats = client.stats();
    if (!stats.has_value()) {
      std::fprintf(stderr, "error: daemon returned an unparsable stats response\n");
      return 1;
    }
    std::printf("daemon service: submitted %llu, completed %llu, solved %llu, cache hits "
                "%llu, in-flight dedup %llu, rejected %llu queue-full / %llu rate-limited\n",
                static_cast<unsigned long long>(stats->service.submitted),
                static_cast<unsigned long long>(stats->service.completed),
                static_cast<unsigned long long>(stats->service.solved),
                static_cast<unsigned long long>(stats->service.cache_hits),
                static_cast<unsigned long long>(stats->service.dedup_joined),
                static_cast<unsigned long long>(stats->service.rejected_queue_full),
                static_cast<unsigned long long>(stats->service.rejected_rate_limited));
    std::printf("daemon cache: %llu hits / %llu misses, %llu insertions, %zu resident "
                "(%llu bytes)\n",
                static_cast<unsigned long long>(stats->cache.hits),
                static_cast<unsigned long long>(stats->cache.misses),
                static_cast<unsigned long long>(stats->cache.insertions), stats->cache.size,
                static_cast<unsigned long long>(stats->cache.bytes));
    std::printf("daemon load: %llu active connections (%llu total), %llu pending, "
                "pool %llu queued / %llu running\n",
                static_cast<unsigned long long>(stats->connections_active),
                static_cast<unsigned long long>(stats->connections_total),
                static_cast<unsigned long long>(stats->pending),
                static_cast<unsigned long long>(stats->pool_queue_depth),
                static_cast<unsigned long long>(stats->pool_in_flight));
    std::printf("daemon loop: %llu wakeups, %llu timers fired, %llu idle closes, "
                "%llu bytes backpressured; gc %llu runs (%llu entries, %llu bytes "
                "removed)\n",
                static_cast<unsigned long long>(stats->loop_wakeups),
                static_cast<unsigned long long>(stats->loop_timers_fired),
                static_cast<unsigned long long>(stats->idle_closes),
                static_cast<unsigned long long>(stats->backpressure_bytes),
                static_cast<unsigned long long>(stats->gc_runs),
                static_cast<unsigned long long>(stats->gc_entries_removed),
                static_cast<unsigned long long>(stats->gc_bytes_removed));
    std::printf("daemon latency: %llu samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                static_cast<unsigned long long>(stats->latency_count),
                stats->latency_p50_ms, stats->latency_p90_ms, stats->latency_p99_ms);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

/// `--dispatch N --figure NAME`: the hands-off multi-process campaign.
/// Launches N `mfsched --shard i/N` workers through the chosen launcher,
/// supervises and retries them, and merges the collected shard files into
/// the byte-identical unsharded table.
int run_dispatch(const mf::support::CliArgs& args) {
  const std::string name = args.get("figure", "");
  if (name.empty() || !mf::exp::figure_spec_by_name(name).has_value()) {
    std::fprintf(stderr, "error: --dispatch needs a known --figure NAME (%s)\n",
                 mf::exp::figure_spec_names().c_str());
    return 2;
  }
  if (args.has("shard") || args.get_int("repeat", 1) != 1) {
    std::fprintf(stderr, "error: --dispatch drives its own shards; drop --shard/--repeat\n");
    return 2;
  }
  if (args.has("scenario") &&
      !mf::exp::ScenarioRegistry::instance().contains(args.get("scenario", ""))) {
    std::fprintf(stderr, "error: unknown scenario '%s' (%s)\n",
                 args.get("scenario", "").c_str(), mf::exp::scenario_ids().c_str());
    return 2;
  }
  const std::int64_t shard_count = args.get_int("dispatch", 0);
  if (shard_count < 2) {
    std::fprintf(stderr, "error: --dispatch expects a worker count N >= 2\n");
    return 2;
  }

  std::string launcher_error;
  const std::unique_ptr<mf::exp::Launcher> launcher =
      mf::exp::launcher_from_spec(args.get("launcher", "local"), &launcher_error);
  if (launcher == nullptr) {
    std::fprintf(stderr, "error: %s\n", launcher_error.c_str());
    return 2;
  }

  mf::exp::DispatchOptions options;
  options.shard_count = static_cast<std::size_t>(shard_count);
  options.max_attempts =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("retries", 2))) + 1;
  options.timeout_seconds = args.get_double("dispatch-timeout", 0.0);
  options.work_dir = args.get("dispatch-dir", name + ".dispatch");
  options.launcher = launcher.get();
  options.observer = [](const mf::exp::DispatchEvent& event) {
    std::printf("dispatch: shard=%zu/%zu attempt=%zu event=%s", event.shard,
                event.shard_count, event.attempt, mf::exp::to_string(event.kind).c_str());
    switch (event.kind) {
      case mf::exp::DispatchEvent::Kind::kLaunch:
        std::printf(" pid=%d log=%s", static_cast<int>(event.pid), event.detail.c_str());
        break;
      case mf::exp::DispatchEvent::Kind::kOk:
        std::printf(" wall_ms=%.1f file=%s", event.wall_ms, event.detail.c_str());
        break;
      default:
        std::printf(" exit=%d detail=\"%s\"", event.exit_code, event.detail.c_str());
        break;
    }
    std::printf("\n");
    std::fflush(stdout);  // progress must stream, not arrive post-merge
  };

  // The workers are this very binary; /proc/self/exe survives PATH-relative
  // and cwd-relative invocations (fall back to argv[0] off Linux).
  std::error_code self_ec;
  std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", self_ec);
  if (self_ec) self = args.program();

  std::vector<std::string> base{self.string(), "--figure", name};
  for (const char* flag : {"scale", "scenario", "seed", "cache", "cache-dir"}) {
    if (args.has(flag)) {
      base.push_back(std::string("--") + flag);
      base.push_back(args.get(flag, ""));
    }
  }
  const std::int64_t inject = args.get_int("inject-shard-failure", -1);

  mf::exp::Dispatcher dispatcher(
      name, [&](std::size_t index, const std::string& out_path) {
        std::vector<std::string> argv = base;
        argv.insert(argv.end(),
                    {"--shard", std::to_string(index) + "/" + std::to_string(shard_count),
                     "--out", out_path});
        if (inject >= 0 && index == static_cast<std::size_t>(inject)) {
          argv.insert(argv.end(),
                      {"--fail-marker",
                       (options.work_dir / ("injected-fail-shard" + std::to_string(index)))
                           .string()});
        }
        return argv;
      });

  std::printf("dispatch: figure %s over %lld shards via %s, %zu attempt(s)/shard%s\n",
              name.c_str(), static_cast<long long>(shard_count),
              launcher->describe().c_str(), options.max_attempts,
              options.timeout_seconds > 0.0 ? ", wedge timeout armed" : "");
  std::fflush(stdout);

  mf::exp::DispatchReport report;
  try {
    report = dispatcher.run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  std::size_t ok_count = 0;
  std::size_t retried = 0;
  for (const mf::exp::ShardReport& shard : report.shards) {
    if (shard.ok) ++ok_count;
    if (shard.ok && shard.attempts > 1) ++retried;
    std::printf("dispatch-shard: index=%zu ok=%d attempts=%zu exit=%d wall_ms=%.1f file=%s%s%s\n",
                shard.index, shard.ok ? 1 : 0, shard.attempts, shard.exit_code,
                shard.wall_ms, shard.shard_file.c_str(),
                shard.error.empty() ? "" : " error=", shard.error.c_str());
  }
  std::printf("dispatch-summary: shards=%zu ok=%zu failed=%zu retried=%zu launcher=%s\n",
              report.shards.size(), ok_count, report.shards.size() - ok_count, retried,
              launcher->describe().c_str());
  if (!report.ok) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("=== %s: %s (dispatched over %zu shards) ===\n", report.merged->spec.name.c_str(),
              report.merged->spec.description.c_str(), report.shards.size());
  print_sweep(*report.merged);
  const std::string out = args.get("out", "");
  if (!out.empty() && !write_sweep_file(*report.merged, out)) return 1;
  return 0;
}

int run_merge(const mf::support::CliArgs& args) {
  // The flag parser binds the first file to --merge itself ("--name value"
  // form); the rest arrive as positionals.
  std::vector<std::string> paths;
  const std::string bound = args.get("merge", "");
  if (!bound.empty() && bound != "true") paths.push_back(bound);
  paths.insert(paths.end(), args.positional().begin(), args.positional().end());
  if (paths.empty()) {
    std::fprintf(stderr, "error: --merge needs one shard file per shard\n");
    return 2;
  }
  std::vector<mf::exp::SweepResult> shards;
  shards.reserve(paths.size());
  try {
    for (const std::string& path : paths) {
      shards.push_back(mf::exp::load_sweep_shard(path));
    }
    const mf::exp::SweepResult result = mf::exp::merge(std::move(shards));
    std::printf("=== %s: %s (merged from %zu shards) ===\n", result.spec.name.c_str(),
                result.spec.description.c_str(), paths.size());
    print_sweep(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (args.has("help")) {
    (void)usage(args.program().c_str());
    return 0;
  }
  if (args.has("list")) return list_solvers();
  if (args.has("list-scenarios")) return list_scenarios();
  // --serve wins over --cache-gc/--cache-gc-ttl: combined with --serve and
  // --cache-gc-interval they become the in-daemon GC policy (cap + TTL)
  // instead of a one-shot standalone pass.
  if (args.has("serve")) return run_serve(args);
  if (args.has("cache-gc") || args.has("cache-gc-ttl")) return run_cache_gc(args);
  if (args.has("serve-stats")) return run_remote_stats(args);
  if (args.has("dispatch")) return run_dispatch(args);
  if (args.has("figure")) return run_figure(args);
  if (args.has("merge")) return run_merge(args);
  if (args.has("serve-demo")) return run_serve_demo(args);

  if (args.has("demo")) {
    mf::exp::Scenario scenario;
    scenario.tasks = static_cast<std::size_t>(args.get_int("tasks", 15));
    scenario.machines = static_cast<std::size_t>(args.get_int("machines", 6));
    scenario.types = static_cast<std::size_t>(args.get_int("types", 3));
    const mf::core::Problem problem = mf::exp::generate(scenario, seed);
    mf::core::save_problem(problem, "demo_problem.txt");
    std::printf("wrote demo_problem.txt (%s)\n", scenario.describe().c_str());
    return 0;
  }

  if (args.positional().empty()) return usage(args.program().c_str());

  mf::core::Problem problem = [&] {
    try {
      return mf::core::load_problem(args.positional()[0]);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(1);
    }
  }();
  std::printf("loaded: %s on %s\n", problem.app.describe().c_str(),
              problem.platform.describe().c_str());

  std::string method = args.get("method", "H4w");
  if (method == "exact") method = "bnb";  // pre-registry spelling

  mf::solve::SolveParams params;
  params.seed = seed;
  params.local_search = args.has("refine");
  params.cache = parse_cache_flag(args);
  if (args.has("budget")) {
    params.max_nodes = static_cast<std::uint64_t>(args.get_int("budget", 0));
  }

  // The single-solve path rides the same async service the sweeps and the
  // scheduler daemon use: submit one request, wait on its future. With
  // --connect, the identical request goes to a daemon instead — admission
  // rejections (queue-full, rate-limited) surface as errors, not retries.
  CacheScope cache_scope(args);
  const mf::solve::SolveResult result = [&] {
    mf::solve::SolveRequest request;
    request.problem = std::make_shared<const mf::core::Problem>(problem);
    request.solver_id = method;
    request.params = params;
    if (args.has("connect")) {
      const auto target = mf::serve::parse_host_port(args.get("connect", ""));
      if (!target.has_value()) {
        std::fprintf(stderr, "error: --connect expects HOST:PORT\n");
        std::exit(2);
      }
      try {
        mf::serve::Client client(target->first, target->second);
        mf::serve::WireRequest wire;
        wire.client_id = args.get("client-id", "mfsched");
        wire.request = std::move(request);
        wire.request.derive_stream_seed = false;
        const mf::serve::Client::Outcome outcome = client.solve(wire);
        if (!outcome.ok) {
          std::fprintf(stderr, "error: daemon refused solve: %s: %s\n",
                       outcome.error_code.c_str(), outcome.detail.c_str());
          std::exit(1);
        }
        return outcome.result;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(1);
      }
    }
    try {
      mf::solve::SolveService service(nullptr, cache_scope.backend());
      return service.submit(std::move(request)).get();
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(usage(args.program().c_str()));
    }
  }();
  if (args.has("cache-stats")) cache_scope.print_delta();

  const auto& diag = result.diagnostics;
  if (!result.has_mapping()) {
    std::fprintf(stderr, "error: %s produced no mapping (%s)%s%s\n", diag.solver_id.c_str(),
                 mf::solve::to_string(result.status).c_str(), diag.note.empty() ? "" : ": ",
                 diag.note.c_str());
    return 1;
  }
  if (result.status == mf::solve::Status::kBudgetExhausted) {
    std::fprintf(stderr, "warning: node budget exhausted; best-found mapping used\n");
  }

  std::printf("%s period: %.1f ms/product (throughput %.3f/s) [%s, %.1f ms solve",
              diag.solver_id.c_str(), result.period, 1000.0 / result.period,
              mf::solve::to_string(result.status).c_str(), diag.wall_time_ms);
  if (diag.nodes_explored > 0) {
    std::printf(", %llu nodes", static_cast<unsigned long long>(diag.nodes_explored));
  }
  if (diag.cache_hit) std::printf(", cache hit");
  std::printf("]\n");
  if (diag.refined) {
    std::printf("refinement: -%.1f ms/product over %zu moves (%s)\n",
                diag.refiner_improvement_ms, diag.refiner_moves,
                diag.refiner_converged ? "local optimum" : "pass budget");
  }

  const auto simulate = static_cast<std::uint64_t>(args.get_int("simulate", 0));
  if (simulate > 0) {
    mf::sim::SimulationConfig config;
    config.seed = seed;
    config.target_outputs = simulate;
    config.warmup_outputs = simulate / 10;
    const auto report = mf::sim::Simulator(problem, *result.mapping).run(config);
    std::printf("simulated %llu products: measured period %.1f ms (analytic %.1f)\n",
                static_cast<unsigned long long>(report.finished_products),
                report.measured_period, result.period);
  }

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    mf::core::save_mapping(*result.mapping, out);
    std::printf("mapping written to %s\n", out.c_str());
  } else {
    std::printf("mapping: %s\n", result.mapping->describe(problem.app).c_str());
  }
  return 0;
}
