// The cache contract of the solve layer: one canonical key, one backend
// interface, one cache-aware solve primitive.
//
// A `CacheKey` is the full identity of a solve — the 128-bit problem
// digest, the effective solver id, the scenario provenance label, and the
// canonicalized parameter set — so a hit is exactly the result the solver
// would recompute. `CacheBackend` is what the execution layer talks to;
// implementations are the sharded-mutex in-memory LRU (`ResultCache`,
// solve/cache.hpp), the persistent on-disk store (`DiskCache`,
// solve/disk_cache.hpp), and the memory-over-disk composite (`TieredCache`,
// solve/tiered_cache.hpp). `cached_solve` applies a request's `CachePolicy`
// against any backend; `SolveService` adds single-flight deduplication on
// top (solve/service.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/digest.hpp"
#include "solve/solver.hpp"

namespace mf::solve {

/// Parses "off", "read", "rw" / "read-write"; nullopt otherwise.
[[nodiscard]] std::optional<CachePolicy> cache_policy_from_string(const std::string& text);

/// The canonical identity of a solve. `local_search` is folded into the
/// solver id ("+ls"), refinement options are zeroed when no refinement
/// stage runs, and an absent node budget is distinguished from max_nodes=0
/// — so two parameter bags that drive byte-identical solves share one key.
/// Double-valued params are stored as normalized IEEE-754 bit patterns
/// (-0.0 folded into +0.0), keeping equality and hashing consistent for
/// every input including NaN.
///
/// Caveat: a nonzero `time_limit_ms` makes the refinement-skip decision
/// wall-clock dependent, so a result computed on a loaded machine may be
/// the unrefined variant — a later hit returns it verbatim where a fresh
/// solve might have refined. Time-limited requests that must re-race the
/// clock each run should not use kReadWrite.
struct CacheKey {
  core::Digest problem;
  std::string solver_id;  ///< effective id, e.g. "H4w+ls"
  std::string scenario;   ///< scenario/model provenance label ("" = direct solve)
  std::uint64_t seed = 0;
  bool has_max_nodes = false;
  std::uint64_t max_nodes = 0;
  std::uint64_t time_limit_ms_bits = 0;
  // Refinement options; all-zero unless solver_id carries "+ls".
  std::uint64_t refine_max_passes = 0;
  bool refine_allow_swaps = false;
  bool refine_first_improvement = false;
  std::uint64_t refine_min_relative_gain_bits = 0;
  /// 128-bit digest (hash_hi, hash) over every identity field above, filled
  /// by `make_cache_key` (the only way keys are built). The low word picks
  /// shards and hash-map buckets; both words together name on-disk entry
  /// files, wide enough that distinct keys colliding is not a practical
  /// concern (and a collision still degrades to a miss — stored entries
  /// carry their full key, which lookups verify). Not part of the identity
  /// itself.
  std::uint64_t hash = 0;
  std::uint64_t hash_hi = 0;

  [[nodiscard]] bool operator==(const CacheKey& other) const {
    return problem == other.problem && solver_id == other.solver_id &&
           scenario == other.scenario && seed == other.seed &&
           has_max_nodes == other.has_max_nodes &&
           max_nodes == other.max_nodes &&
           time_limit_ms_bits == other.time_limit_ms_bits &&
           refine_max_passes == other.refine_max_passes &&
           refine_allow_swaps == other.refine_allow_swaps &&
           refine_first_improvement == other.refine_first_improvement &&
           refine_min_relative_gain_bits == other.refine_min_relative_gain_bits;
  }
};

/// Canonicalizes (problem digest, resolved solver id, params) into a key.
/// `effective_id` must already include composition suffixes — pass
/// `effective_solver_id(...)` or `Solver::id()` output.
[[nodiscard]] CacheKey make_cache_key(const core::Digest& problem_digest,
                                      const std::string& effective_id,
                                      const SolveParams& params);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;  ///< entries currently resident
  /// Bytes the resident entries occupy on persistent storage; 0 for
  /// memory-only backends (tiers report the sum of their layers).
  std::uint64_t bytes = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// What the execution layer (cached_solve, SolveService)
/// requires of a result store. Implementations must be safe for concurrent
/// lookup/insert from pool threads, and a lookup hit must return exactly
/// the result the solver would recompute for that key — backends that
/// cannot guarantee an entry's integrity (e.g. a torn on-disk file) must
/// report a miss, never a corrupted result.
class CacheBackend {
 public:
  virtual ~CacheBackend() = default;

  /// Returns the stored result, or nullopt on a miss; counts either way.
  [[nodiscard]] virtual std::optional<SolveResult> lookup(const CacheKey& key) = 0;
  /// Stores (or refreshes) a result. Best-effort for persistent backends: a
  /// failed write costs a future miss, never corruption.
  virtual void insert(const CacheKey& key, const SolveResult& result) = 0;
  [[nodiscard]] virtual CacheStats stats() const = 0;
  /// Drops every entry; counters keep accumulating (they describe the
  /// process, not the current contents).
  virtual void clear() = 0;
  /// One-line backend description for logs, e.g. "memory-lru(65536)".
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The cache-aware solve primitive the execution layers share: applies
/// `params.cache` against `cache`, solving through `timed_solve` on a miss.
/// Pass the problem's digest when the caller already computed it (the batch
/// engine digests each distinct problem once); kError results are never
/// stored.
[[nodiscard]] SolveResult cached_solve(const Solver& solver, const core::Problem& problem,
                                       const SolveParams& params, CacheBackend& cache,
                                       const std::optional<core::Digest>& problem_digest = {});

}  // namespace mf::solve
