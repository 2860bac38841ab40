// The scheduler daemon: a TCP front end over one shared `SolveService`.
//
// One daemon owns one thread pool, one cache backend view, and one
// `SolveService` — every connection funnels into the same single-flight
// table and tiered cache, so N clients asking for the same figure sweep
// cost one solve per distinct identity, exactly as if they shared a
// process.
//
// Connections are multiplexed by a single reactor thread
// (`serve/event_loop.hpp`) over non-blocking sockets, with a
// per-connection frame state machine that resumes partial reads and
// writes. Solves run on the pool via `SolveService::submit_async`, and
// completion re-enters the loop through the eventfd wakeup. Idle
// connections cost a few hundred bytes, not a thread — thousands of
// dormant clients are fine.
//
// Every `solve` frame runs the same admission gauntlet (drain flag → body
// parse → rate limiter → bounded pending counter) and every refusal is an
// explicit error frame carrying one of six codes; the test suite pins the
// refusal bytes against a committed fixture.
//
// The reactor's timer queue also does the daemon's housekeeping:
// idle-connection timeouts (measured frame-to-frame, so a byte-dribbling
// slow-loris client is closed on schedule), rate-limiter bucket pruning,
// and — when configured — periodic `DiskCache::gc` so a long-lived daemon
// enforces its cache cap/TTL without a separate `--cache-gc` invocation.
//
// Shutdown is a drain, not an abort: `drain()` stops accepting, marks the
// daemon draining (new solve frames are refused with `draining`), and
// closes idle connections; in-flight solves complete and their responses
// flush before the reactor retires. `wait()` joins it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "serve/latency.hpp"
#include "serve/protocol.hpp"
#include "serve/rate_limiter.hpp"
#include "solve/service.hpp"
#include "support/thread_pool.hpp"

namespace mf::solve {
class DiskCache;
}  // namespace mf::solve

namespace mf::serve {

/// The daemon has one connection model, the epoll reactor. This enum and
/// `DaemonOptions::backend` remain only so the end-to-end benchmark under
/// `perfbench/`, which sets the field, keeps compiling; the daemon never
/// reads it. Delete both with the next change to that benchmark.
enum class ServeBackend { kEpoll };

struct DaemonOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
  /// read it back with `port()` (the in-process mode tests and the bench
  /// run in).
  std::uint16_t port = 0;
  /// Solver pool width; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Unused; see `ServeBackend`.
  ServeBackend backend = ServeBackend::kEpoll;
  /// Admission control: solve requests admitted but not yet answered,
  /// across all connections. At the cap, new solves are refused with
  /// `queue-full`.
  std::size_t max_pending = 256;
  /// Per-client token bucket: burst capacity in requests; <= 0 disables
  /// rate limiting.
  double rate_capacity = 0.0;
  /// Tokens restored per second once a client has burned its burst.
  double rate_refill_per_sec = 0.0;
  /// Largest frame body accepted from a client.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Close a connection that has not completed a frame (or had a response
  /// flushed) for this long; <= 0 disables. Connections with a solve in
  /// flight are exempt. Activity is counted per *frame*, not per byte, so
  /// a slow-loris client dribbling a header cannot stay alive forever.
  double idle_timeout_seconds = 0.0;
  /// Run `DiskCache::gc(gc_max_bytes, gc_max_age_seconds)` on the reactor's
  /// timer every this-many seconds; <= 0 (or a null `gc_disk`) disables.
  double cache_gc_interval_seconds = 0.0;
  /// The disk tier the GC timer compacts. Distinct from `cache` because
  /// the service's backend is usually a `TieredCache` wrapper that does
  /// not expose gc().
  solve::DiskCache* gc_disk = nullptr;
  /// Byte cap handed to the periodic gc; 0 means "no byte cap" (TTL-only).
  std::uint64_t gc_max_bytes = 0;
  /// TTL handed to the periodic gc; 0 disables age-based expiry.
  std::uint64_t gc_max_age_seconds = 0;
  /// Cache backend the service uses; nullptr = the process-wide
  /// `ResultCache::global()`. Point it at a `TieredCache` over a
  /// `DiskCache` for a warm-across-restarts daemon.
  solve::CacheBackend* cache = nullptr;
};

struct EpollServer;

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Drains and joins; a destroyed daemon has no live threads.
  ~Daemon();

  /// Binds, listens, and starts the reactor thread. Throws
  /// `std::runtime_error` when the port cannot be bound.
  void start();

  /// The bound port (after `start()`); the ephemeral port when
  /// options.port was 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Begins graceful shutdown: stop accepting, refuse new solves with
  /// `draining`, close idle connections. Idempotent; safe from any thread
  /// (it is the SIGTERM path).
  void drain();

  /// Blocks until the reactor has retired every connection (i.e.
  /// after `drain()`, until in-flight work has finished and flushed).
  void wait();

  /// Everything the `stats` endpoint reports, readable in-process too.
  [[nodiscard]] DaemonStatsSnapshot stats_snapshot() const;

  [[nodiscard]] solve::SolveService& service() noexcept { return *service_; }

 private:
  friend struct EpollServer;

  /// The admission gauntlet: drain flag → body parse → rate limiter →
  /// bounded pending counter, in exactly that order.
  /// Returns the admitted request (a pending slot is now held — the caller
  /// must release it after answering) or nullopt with `refusal` filled.
  [[nodiscard]] std::optional<WireRequest> admit_solve(const std::string& body,
                                                       Frame& refusal);
  /// One periodic-GC pass over `options_.gc_disk`; updates the counters.
  void run_gc_once();

  DaemonOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;
  std::unique_ptr<solve::SolveService> service_;
  RateLimiter limiter_;
  LatencyHistogram latency_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> idle_closes_{0};
  /// Bytes currently buffered for writers the peer is slow to read —
  /// maintained by the reactor's flush path.
  std::atomic<std::int64_t> backpressure_bytes_{0};
  std::atomic<std::uint64_t> gc_runs_{0};
  std::atomic<std::uint64_t> gc_entries_removed_{0};
  std::atomic<std::uint64_t> gc_bytes_removed_{0};

  // The reactor state and the one thread running it.
  std::unique_ptr<EpollServer> epoll_;
  std::thread loop_thread_;
};

}  // namespace mf::serve
