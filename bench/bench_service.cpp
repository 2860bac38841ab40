// Serving bench: an in-process scheduler daemon on an ephemeral port,
// driven by N concurrent client connections over real TCP, emitting
// BENCH_service.json for the CI perf trajectory.
//
// Two measurements live here:
//
//   1. Throughput (always): every connection replays requests drawn
//      round-robin from K distinct solve identities against a warm daemon
//      — so after the warmup pass the daemon must answer purely from its
//      shared cache, and `solved` staying at K (one solve per distinct
//      identity, ever) is asserted, not just reported. What the timings
//      then measure is the serving overhead itself: framing, parsing,
//      admission, cache lookup, response serialization, and the TCP
//      round-trip.
//
//   2. Connection scaling (--idle N > 0): the reactor's reason to exist.
//      Two fresh daemons run side by side in this process, one with N
//      idle connections open and one with none; one active client per
//      daemon measures cache-hit serving, the two taking turns. The
//      reactor holds each idle socket for a few hundred bytes, not a
//      thread. Gated, not just recorded: with N idle the daemon's thread
//      count must stay O(solver pool), and its active throughput must not
//      fall meaningfully below the 0-idle daemon's.
//
//   bench_service [--connections N] [--requests R] [--distinct K]
//                 [--idle N] [--idle-requests R] [--out BENCH_service.json]
//
// Deliberately free of the google-benchmark dependency, like the other
// plain harnesses: the quantity under test (sustained req/s and tail
// latency across live connections) needs a daemon and threads, not an
// iteration framework.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "solve/cache.hpp"
#include "support/cli.hpp"

namespace {

/// The q-quantile of a sorted sample set (nearest-rank).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Current thread count of this process (daemon threads included — the
/// daemon is in-process, which is exactly why the gauge works).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + std::strlen("Threads:"));
    }
  }
  return -1;
}

/// Raises RLIMIT_NOFILE toward what `idle` connections need (2 fds each —
/// one per side, daemon in-process — plus slack). Returns the idle count
/// that actually fits; a scale-down is reported loudly, never silent.
std::size_t fit_idle_to_fd_limit(std::size_t idle) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return idle;
  const rlim_t want = static_cast<rlim_t>(idle) * 2 + 128;
  if (limit.rlim_cur < want) {
    rlimit raised = limit;
    raised.rlim_cur = std::min(want, limit.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) limit = raised;
  }
  if (limit.rlim_cur < want) {
    const std::size_t fits = (static_cast<std::size_t>(limit.rlim_cur) - 128) / 2;
    std::fprintf(stderr,
                 "warning: RLIMIT_NOFILE %llu cannot hold %zu idle connections; "
                 "scaling down to %zu\n",
                 static_cast<unsigned long long>(limit.rlim_cur), idle, fits);
    return fits;
  }
  return idle;
}

std::vector<mf::serve::WireRequest> make_identities(
    const std::shared_ptr<const mf::core::Problem>& problem, std::size_t distinct) {
  std::vector<mf::serve::WireRequest> identities;
  identities.reserve(distinct);
  for (std::size_t k = 0; k < distinct; ++k) {
    mf::serve::WireRequest wire;
    wire.client_id = "bench";
    wire.request.problem = problem;
    wire.request.solver_id = "H1";
    wire.request.params.seed = 1000 + k;
    wire.request.params.cache = mf::solve::CachePolicy::kReadWrite;
    identities.push_back(std::move(wire));
  }
  return identities;
}

/// Warms every identity through one connection; exits loudly on failure.
void warm_daemon(const mf::serve::Daemon& daemon,
                 const std::vector<mf::serve::WireRequest>& identities) {
  mf::serve::Client warmer("127.0.0.1", daemon.port());
  for (const mf::serve::WireRequest& wire : identities) {
    const mf::serve::Client::Outcome outcome = warmer.solve(wire);
    if (!outcome.ok) {
      std::fprintf(stderr, "error: warmup solve failed: %s: %s\n",
                   outcome.error_code.c_str(), outcome.detail.c_str());
      std::exit(1);
    }
  }
}

/// A connected socket that says nothing — the scaling workload's ballast.
int open_idle_connection(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct ScalingSample {
  std::size_t idle = 0;
  int threads_delta = 0;  ///< process threads added by this daemon
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

mf::serve::DaemonOptions scaling_options(mf::solve::CacheBackend* cache,
                                         std::size_t pool_threads) {
  mf::serve::DaemonOptions options;
  options.cache = cache;
  options.threads = pool_threads;
  return options;
}

/// One side of the scaling comparison: a warm daemon with `idle` silent
/// connections open and accepted, and one active client timing cache-hit
/// solves in chunks.
class ScalingRig {
 public:
  ScalingRig(std::size_t idle, std::size_t pool_threads,
             const std::vector<mf::serve::WireRequest>& identities)
      : identities_(identities),
        baseline_threads_(process_threads()),
        cache_(4096),
        daemon_(scaling_options(&cache_, pool_threads)) {
    daemon_.start();
    warm_daemon(daemon_, identities_);
    ballast_.reserve(idle);
    for (std::size_t i = 0; i < idle; ++i) {
      const int fd = open_idle_connection(daemon_.port());
      if (fd < 0) {
        std::fprintf(stderr, "error: idle connection %zu failed: %s\n", i,
                     std::strerror(errno));
        std::exit(1);
      }
      ballast_.push_back(fd);
    }
    // The gauge below must count *accepted* connections, not a backlog.
    while (daemon_.stats_snapshot().connections_active < idle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Sampled with every idle connection live: a daemon that paid a thread
    // per connection would show it here.
    sample_.idle = idle;
    sample_.threads_delta = process_threads() - baseline_threads_;
    client_ = std::make_unique<mf::serve::Client>("127.0.0.1", daemon_.port());
  }

  ScalingRig(const ScalingRig&) = delete;
  ScalingRig& operator=(const ScalingRig&) = delete;

  ~ScalingRig() {
    client_.reset();
    for (const int fd : ballast_) ::close(fd);
    daemon_.drain();
    daemon_.wait();
  }

  /// Times `count` more cache-hit solves on the active client.
  void run_chunk(std::size_t count) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < count; ++r) {
      const auto sent = std::chrono::steady_clock::now();
      const mf::serve::Client::Outcome outcome =
          client_->solve(identities_[latencies_.size() % identities_.size()]);
      if (!outcome.ok) {
        std::fprintf(stderr, "error: scaling solve failed (%zu idle): %s: %s\n",
                     sample_.idle, outcome.error_code.c_str(), outcome.detail.c_str());
        std::exit(1);
      }
      latencies_.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sent)
                               .count());
    }
    busy_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }

  [[nodiscard]] ScalingSample sample() const {
    ScalingSample sample = sample_;
    std::vector<double> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    sample.req_per_s =
        busy_ms_ > 0.0 ? 1000.0 * static_cast<double>(sorted.size()) / busy_ms_ : 0.0;
    sample.p50_ms = quantile(sorted, 0.50);
    sample.p99_ms = quantile(sorted, 0.99);
    return sample;
  }

 private:
  const std::vector<mf::serve::WireRequest>& identities_;
  int baseline_threads_;
  mf::solve::ResultCache cache_;
  mf::serve::Daemon daemon_;
  std::vector<int> ballast_;
  std::unique_ptr<mf::serve::Client> client_;
  ScalingSample sample_;
  std::vector<double> latencies_;
  double busy_ms_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  const auto connections =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("connections", 8)));
  const auto per_connection =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("requests", 200)));
  const auto distinct =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("distinct", 16)));
  const auto idle_requested =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("idle", 0)));
  const auto idle_requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("idle-requests", 500)));
  const std::string out_path = args.get("out", "BENCH_service.json");

  mf::solve::ResultCache cache(4096);
  mf::serve::DaemonOptions options;
  options.cache = &cache;
  mf::serve::Daemon daemon(options);
  daemon.start();

  // K distinct identities: one shared problem, K seeds. H1 is seeded and
  // cheap, so the bench measures serving overhead, not solver depth.
  mf::exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  const auto problem =
      std::make_shared<const mf::core::Problem>(mf::exp::generate(scenario, 7));
  const std::vector<mf::serve::WireRequest> identities =
      make_identities(problem, distinct);

  // Warmup: solve each identity once; everything after this is cache-hit
  // serving, which is the steady state under measurement.
  warm_daemon(daemon, identities);

  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      mf::serve::Client client("127.0.0.1", daemon.port());
      latencies[c].reserve(per_connection);
      for (std::size_t r = 0; r < per_connection; ++r) {
        const auto sent = std::chrono::steady_clock::now();
        const mf::serve::Client::Outcome outcome =
            client.solve(identities[(c + r) % identities.size()]);
        if (!outcome.ok) {
          std::fprintf(stderr, "error: bench solve failed: %s: %s\n",
                       outcome.error_code.c_str(), outcome.detail.c_str());
          std::exit(1);
        }
        latencies[c].push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - sent)
                                   .count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  const mf::serve::DaemonStatsSnapshot stats = daemon.stats_snapshot();
  daemon.drain();
  daemon.wait();

  // The serving contract, asserted: N clients hammering K identities cost
  // exactly K solver invocations (the warmup's), zero during measurement.
  if (stats.service.solved != distinct) {
    std::fprintf(stderr,
                 "error: expected %zu solves (one per distinct identity), daemon did %llu\n",
                 distinct, static_cast<unsigned long long>(stats.service.solved));
    return 1;
  }

  std::vector<double> all;
  for (const std::vector<double>& per : latencies) {
    all.insert(all.end(), per.begin(), per.end());
  }
  std::sort(all.begin(), all.end());
  const double total_requests = static_cast<double>(all.size());
  const double req_per_s = wall_ms > 0.0 ? 1000.0 * total_requests / wall_ms : 0.0;

  // The scaling comparison (opt-in): pool width pinned so the gate
  // "threads stay O(pool)" has a fixed yardstick.
  constexpr std::size_t kScalingPool = 4;
  const std::size_t idle =
      idle_requested > 0 ? fit_idle_to_fd_limit(idle_requested) : 0;
  ScalingSample quiet_sample;
  ScalingSample idle_sample;
  if (idle > 0) {
    // Both daemons stay up and the two clients take turns, chunk by chunk,
    // in alternating order: host-speed drift and scheduler luck hit both
    // sides alike, so the ratio gated below measures the idle connections.
    // The idle daemon comes up first, so its thread count is its own.
    ScalingRig with_idle(idle, kScalingPool, identities);
    ScalingRig quiet(0, kScalingPool, identities);
    constexpr std::size_t kRounds = 20;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t chunk =
          idle_requests / kRounds + (round < idle_requests % kRounds ? 1 : 0);
      ScalingRig& first = round % 2 == 0 ? quiet : with_idle;
      ScalingRig& second = round % 2 == 0 ? with_idle : quiet;
      first.run_chunk(chunk);
      second.run_chunk(chunk);
    }
    quiet_sample = quiet.sample();
    idle_sample = with_idle.sample();
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"service\",\n"
       << "  \"connections\": " << connections << ",\n"
       << "  \"requests\": " << static_cast<std::size_t>(total_requests) << ",\n"
       << "  \"distinct\": " << distinct << ",\n";
  {
    char numbers[512];
    std::snprintf(numbers, sizeof numbers,
                  "  \"wall_ms\": %.3f,\n"
                  "  \"req_per_s\": %.1f,\n"
                  "  \"p50_ms\": %.4f,\n"
                  "  \"p99_ms\": %.4f,\n",
                  wall_ms, req_per_s, quantile(all, 0.50), quantile(all, 0.99));
    json << numbers;
  }
  json << "  \"solved\": " << stats.service.solved << ",\n"
       << "  \"cache_hits\": " << stats.service.cache_hits << ",\n"
       << "  \"dedup_joined\": " << stats.service.dedup_joined << ",\n";
  {
    char numbers[256];
    std::snprintf(numbers, sizeof numbers,
                  "  \"daemon_p50_ms\": %.4f,\n"
                  "  \"daemon_p99_ms\": %.4f",
                  stats.latency_p50_ms, stats.latency_p99_ms);
    json << numbers;
  }
  if (idle > 0) {
    const auto emit = [&json](const char* name, const ScalingSample& sample) {
      char block[512];
      std::snprintf(block, sizeof block,
                    "    \"%s\": {\n"
                    "      \"threads_delta\": %d,\n"
                    "      \"req_per_s\": %.1f,\n"
                    "      \"p50_ms\": %.4f,\n"
                    "      \"p99_ms\": %.4f\n"
                    "    }",
                    name, sample.threads_delta, sample.req_per_s, sample.p50_ms,
                    sample.p99_ms);
      json << block;
    };
    json << ",\n  \"scaling\": {\n"
         << "    \"idle\": " << idle << ",\n"
         << "    \"pool_threads\": " << kScalingPool << ",\n";
    emit("no_idle", quiet_sample);
    json << ",\n";
    emit("with_idle", idle_sample);
    json << "\n  }";
  }
  json << "\n}\n";

  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("%s", json.str().c_str());
  std::printf("service bench: %zu connections x %zu requests over %zu identities: "
              "%.1f req/s, p50 %.3f ms, p99 %.3f ms, %llu solves\n",
              connections, per_connection, distinct, req_per_s, quantile(all, 0.50),
              quantile(all, 0.99), static_cast<unsigned long long>(stats.service.solved));

  if (idle > 0) {
    std::printf("scaling: 0 idle %+d threads, %.1f req/s, p50 %.3f ms | "
                "%zu idle %+d threads, %.1f req/s, p50 %.3f ms\n",
                quiet_sample.threads_delta, quiet_sample.req_per_s, quiet_sample.p50_ms,
                idle, idle_sample.threads_delta, idle_sample.req_per_s,
                idle_sample.p50_ms);

    // Gate 1: the reactor's thread bill is the pool plus a constant (the
    // loop thread and a little runtime slack) — NOT a function of idle.
    const int allowed = static_cast<int>(kScalingPool) + 8;
    if (idle_sample.threads_delta > allowed) {
      std::fprintf(stderr,
                   "error: daemon used %d extra threads with %zu idle "
                   "connections (allowed %d — pool plus slack)\n",
                   idle_sample.threads_delta, idle, allowed);
      return 1;
    }
    // Gate 2: parked connections are not allowed to cost active throughput.
    // 0.85 absorbs timer noise without letting a real regression through.
    if (idle_sample.req_per_s < 0.85 * quiet_sample.req_per_s) {
      std::fprintf(stderr,
                   "error: active throughput with %zu idle connections, %.1f req/s, "
                   "fell below 0.85x the 0-idle run's %.1f req/s\n",
                   idle, idle_sample.req_per_s, quiet_sample.req_per_s);
      return 1;
    }
  }
  return 0;
}
