// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// in-memory span recorder behind the traced mode, order statistics, and the
// report every workload fills and `main` prints.
//
// Spans are recorded only from this directory's files, around calls into
// the library's public functions (the executor seam of exp::run_sweep, the
// cache-tier decorators handed to the daemon, client round-trips,
// sim::Simulator::run). They stay in memory and are written once, at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in the process.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Regenerate the sweep reference tables into this directory instead of
  /// checking against them (seed 0 only).
  std::string write_reference;
};

/// Where span files and scratch cache directories go, relative to the
/// checkout root the benchmark runs from.
inline constexpr const char* kWorkDir = ".bench_build/perfbench-work";

/// One closed interval of work at a layer boundary. `parent` is the span
/// that caused it (0 = root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Thread-safe in-memory span store. A disabled tracer records nothing and
/// costs one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off between phases (the traced run alternates
  /// untraced and traced repetitions to measure the tracer's own cost).
  /// Daemon and pool threads read the flag while the benchmark flips it.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Reserves a span id, so children can name their parent before the
  /// parent span is closed.
  [[nodiscard]] std::uint64_t reserve_id() noexcept { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span under a fresh id; a no-op while the tracer
  /// is off.
  void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t parent = 0, std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  friend class ScopedSpan;
  /// Stores a span whatever the switch says: a span opened while tracing
  /// is kept even when tracing stops before it closes.
  void store(Span span);

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as a span when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_;
};

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double max_of(const std::vector<double>& values);

/// Set-up is repeated at least this long in total (and at least a
/// workload's own count of times) before its median is taken: a set-up of
/// a fraction of a millisecond, repeated only a few dozen times, samples
/// too short a stretch of the host and its median moved twofold between
/// runs.
inline constexpr double kMinSetupSeconds = 0.5;

/// How many consecutive blocks `block_quantile` splits a run into.
inline constexpr std::size_t kQuantileBlocks = 5;

/// The median over up to kQuantileBlocks consecutive blocks of repetitions
/// of each block's q-quantile. A stall of the shared host lands in one
/// block and moves the figure only when it lasts through most of the run.
[[nodiscard]] double block_quantile(const std::vector<std::vector<double>>& per_rep, double q);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Heap allocations made by the calling thread so far (counted by the
/// benchmark's replacement operator new).
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` are printed by name and unit;
/// the final JSON line carries exactly the ones the run's mode declares.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< one line per failed check
  /// Host/build facts the numbers depend on (pool widths included).
  std::vector<std::pair<std::string, std::string>> stamp;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check; the run is then not correct.
  void fail_check(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

/// Repetition control shared by the workloads: keep repeating while the
/// next repetition, predicted from the median so far, still fits in the
/// budget — but always run at least `min_reps`.
class RepClock {
 public:
  RepClock(double budget_seconds, std::size_t min_reps)
      : budget_ns_(static_cast<std::int64_t>(budget_seconds * 1e9)),
        min_reps_(min_reps),
        start_ns_(now_ns()) {}

  [[nodiscard]] bool another(const std::vector<double>& rep_seconds) const;

 private:
  std::int64_t budget_ns_;
  std::size_t min_reps_;
  std::int64_t start_ns_;
};

/// Writes `text` to `path`, creating parent directories.
void write_file(const std::string& path, const std::string& text);
/// Reads `path`; false when it cannot be read.
[[nodiscard]] bool read_file(const std::string& path, std::string& text);

}  // namespace perfbench
