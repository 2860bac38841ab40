// The async solve service: every execution path in the library — batch
// sweeps, shards, the CLI, and any long-running scheduler server — rides
// this one engine.
//
// `submit()` returns a std::future immediately and runs the solve on the
// shared thread pool. Two guarantees distinguish the service from bare
// `pool.submit(cached_solve)`:
//
//   * Single-flight deduplication — concurrent requests with identical
//     cache keys share ONE in-flight solve instead of racing: the first
//     submission becomes the leader, later identical submissions attach a
//     waiter promise to the leader's flight and are fulfilled when it
//     completes (their results carry `diagnostics.dedup_joined`). Because
//     the cache key is the full solve identity, a shared result is
//     bit-for-bit the result each request would have computed alone.
//   * Shared backend population — a completed read-write solve lands in the
//     `CacheBackend` (in-memory, on-disk, or tiered), so in-flight sharing
//     hands off seamlessly to cache hits once the flight finishes.
//
// Requests with CachePolicy::kOff have no key and therefore no
// deduplication — they run independently, as demanded.
//
// `solve_all` is the synchronous batch face over the same machinery:
// resolve every solver id up front, digest each distinct problem once,
// derive per-index stream seeds, submit everything, wait. Per-request
// failures become Status::kError results — an exception never crosses a
// future out of the service.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/platform.hpp"
#include "solve/cache_backend.hpp"
#include "solve/solver.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mf::solve {

/// One unit of service work. Problems are shared_ptr so many requests (e.g.
/// every method of a paired-design trial) can reference one instance
/// without copying the matrices.
struct SolveRequest {
  std::shared_ptr<const core::Problem> problem;
  std::string solver_id;  ///< registry id, composites ("H4w+ls") included
  SolveParams params;
  /// When true (the default) `solve_all` runs the request with
  /// `stream_seed(params.seed, index)`, decorrelating same-seed requests.
  /// Set false when the caller already derived a content-addressed seed per
  /// request — the sweep runner does, so a request's result (and its cache
  /// key) never depends on batch composition or shard assignment.
  /// `submit()` has no batch index and always takes the request as final.
  bool derive_stream_seed = true;
};

/// Service-level counters, distinct from any backend's `CacheStats`: these
/// describe requests, the backend's describe entries.
struct ServiceStats {
  std::uint64_t submitted = 0;     ///< requests accepted
  std::uint64_t completed = 0;     ///< futures fulfilled
  std::uint64_t solved = 0;        ///< actual Solver::solve invocations
  std::uint64_t cache_hits = 0;    ///< requests answered from the backend
  std::uint64_t dedup_joined = 0;  ///< requests attached to an in-flight twin
  /// Admission-control rejections. The service itself never rejects — a
  /// front end (the scheduler daemon, serve/daemon.hpp) refuses the request
  /// before it reaches submit() and records the refusal here, so one stats
  /// struct describes everything a client experienced.
  std::uint64_t rejected_queue_full = 0;    ///< bounded pending queue was full
  std::uint64_t rejected_rate_limited = 0;  ///< client exceeded its token bucket
};

/// The execution seam consumers program against when they don't care WHERE
/// solving happens: `SolveService` solves in-process;
/// `serve::RemoteExecutor` ships every request to a scheduler daemon over
/// TCP. `exp::SweepOptions::executor` accepts either, so a figure sweep
/// runs bit-identically against both.
class SolveExecutor {
 public:
  virtual ~SolveExecutor() = default;

  /// Solves every request; `results[i]` corresponds to `requests[i]`.
  /// Per-request failures become Status::kError results, never exceptions.
  [[nodiscard]] virtual std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) = 0;
};

class SolveService : public SolveExecutor {
 public:
  /// `pool` may be null: submit() then completes the solve synchronously
  /// before returning its (already-ready) future, which is the serial
  /// execution mode sweeps use in tests. `cache` overrides the process-wide
  /// `ResultCache::global()` (point it at a `TieredCache` for persistence).
  explicit SolveService(support::ThreadPool* pool = nullptr,
                        CacheBackend* cache = nullptr);

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Blocks until every submitted solve has completed, so in-flight tasks
  /// never outlive the service they reference.
  ~SolveService();

  /// Async facade. Resolves the solver id immediately (throws
  /// std::invalid_argument listing the known ids when unknown — before any
  /// work is queued); everything after that is delivered through the
  /// future, including solver failures (as Status::kError results, never
  /// exceptions). The request is taken as final: no stream-seed derivation.
  [[nodiscard]] std::future<SolveResult> submit(SolveRequest request);

  /// Continuation-style twin of `submit()` for callers that must not block
  /// a thread per outstanding solve — the daemon's event-loop backend runs
  /// hundreds of connections on one thread and re-enters its reactor from
  /// this callback. `on_complete` runs exactly once, on the pool thread
  /// that finished the flight (or inline, serial mode), with the same
  /// result the future would have carried; dedup/caching semantics are
  /// identical to `submit()` because both paths share one flight table.
  /// Failures that `submit()` would deliver as a future exception (the
  /// pool rejecting the task) arrive as a Status::kError result instead —
  /// a callback has no exception channel. Unknown solver ids still throw
  /// on the caller's thread before any work is queued.
  void submit_async(SolveRequest request,
                    std::function<void(SolveResult)> on_complete);

  /// Synchronous batch face: solves every request; `results[i]` corresponds
  /// to `requests[i]`. All solver ids are resolved up front, distinct
  /// problems are digested once, per-index stream seeds are derived where
  /// `derive_stream_seed` asks for it, and per-request failures become
  /// Status::kError results so one bad request cannot kill a 10k-request
  /// sweep.
  [[nodiscard]] std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) override;

  /// Records an admission-control rejection against this service (and the
  /// process totals). Called by the front end that refused the request —
  /// the request never reached submit(), so nothing else counts it.
  void note_rejected_queue_full() noexcept;
  void note_rejected_rate_limited() noexcept;

  /// This instance's counters.
  [[nodiscard]] ServiceStats stats() const;
  /// Accumulated counters over every service instance in the process — what
  /// `mfsched --cache-stats` reports, since sweeps build one service per
  /// batch.
  [[nodiscard]] static ServiceStats process_stats();

  [[nodiscard]] CacheBackend& backend() const noexcept { return *cache_; }

  /// The per-request seed stream `solve_all` applies: requests sharing one
  /// base seed still get statistically independent RNG streams, and the
  /// stream depends only on (seed, index) — never on scheduling order.
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t seed,
                                                 std::size_t index) noexcept {
    return support::mix_seed(seed, static_cast<std::uint64_t>(index));
  }

 private:
  /// One request attached to a flight: either a promise (submit) or a
  /// completion callback (submit_async). Exactly one side is active —
  /// `callback` non-null means callback delivery.
  struct Waiter {
    std::promise<SolveResult> promise;
    std::function<void(SolveResult)> callback;
  };
  struct Flight {
    /// Waiters, leader's first; fulfilled together on completion.
    std::vector<Waiter> waiters;
    /// True when any waiter requested kReadWrite: the policy is not part
    /// of the key, so a kRead leader and a kReadWrite twin share a flight
    /// — and the twin's write-through wish must still be honoured.
    /// Guarded by flights_mutex_.
    bool write_through = false;
  };
  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash);
    }
  };

  [[nodiscard]] std::future<SolveResult> submit_resolved(
      SolveRequest request, std::shared_ptr<const Solver> solver,
      std::optional<core::Digest> digest);
  /// The shared admission path under submit()/submit_async: dedup against
  /// the flight table or launch a leader, delivering through `waiter`.
  void submit_with_waiter(SolveRequest request,
                          std::shared_ptr<const Solver> solver,
                          std::optional<core::Digest> digest, Waiter waiter);
  /// Fulfills one waiter (promise or callback) and bumps the completion
  /// counters.
  void deliver(Waiter& waiter, SolveResult result);
  /// Leader body: cache lookup → solve; exceptions to kError. Backend
  /// population is the flight's job (run_flight) — whether to write
  /// through depends on every waiter's policy, not just the leader's.
  [[nodiscard]] SolveResult execute(const Solver& solver, const core::Problem& problem,
                                    const SolveParams& params,
                                    const std::optional<CacheKey>& key);
  void run_flight(const CacheKey& key, const SolveRequest& request, const Solver& solver);
  void enqueue(support::UniqueFunction task);
  void finish_task();

  support::ThreadPool* pool_;
  CacheBackend* cache_;

  std::mutex flights_mutex_;
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, KeyHash> flights_;

  std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;
  std::size_t outstanding_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> solved_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> dedup_joined_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_rate_limited_{0};
};

}  // namespace mf::solve
