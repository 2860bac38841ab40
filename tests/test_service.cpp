// Tests for the async solve service: the submit/future lifecycle,
// single-flight deduplication (N concurrent identical requests produce
// exactly one solver invocation and N bit-identical results), the handoff
// from in-flight sharing to cache hits, error delivery as kError results,
// and equivalence of the pooled and serial batch faces.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/digest.hpp"
#include "exp/scenario.hpp"
#include "solve/cache.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "solve/solver.hpp"
#include "support/thread_pool.hpp"

namespace mf::solve {
namespace {

core::Problem small_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

/// A deterministic solver whose solve() blocks on a gate until the test
/// releases it — the instrument that makes "N requests arrive while the
/// first is in flight" a certainty instead of a race — and counts every
/// invocation, which is what the single-flight contract bounds.
class GatedCountingSolver final : public Solver {
 public:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    std::atomic<int> invocations{0};

    void release() {
      {
        std::lock_guard lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
    void reset() {
      std::lock_guard lock(mutex);
      released = false;
      invocations.store(0);
    }
  };

  static State& state() {
    static State instance;
    return instance;
  }

  [[nodiscard]] std::string id() const override { return "test-gated"; }
  [[nodiscard]] std::string description() const override {
    return "test double: blocks until released, counts invocations";
  }
  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& params) const override {
    state().invocations.fetch_add(1);
    std::unique_lock lock(state().mutex);
    state().cv.wait(lock, [] { return state().released; });
    SolveResult result;
    result.status = Status::kFeasible;
    result.mapping = core::Mapping(
        std::vector<core::MachineIndex>(problem.task_count(), params.seed % 2));
    result.period = static_cast<double>(params.seed) + 0.25;
    return result;
  }
};

class ThrowingSolver final : public Solver {
 public:
  [[nodiscard]] std::string id() const override { return "test-throwing"; }
  [[nodiscard]] std::string description() const override {
    return "test double: always throws";
  }
  [[nodiscard]] SolveResult solve(const core::Problem&, const SolveParams&) const override {
    throw std::runtime_error("deliberate test failure");
  }
};

/// Registers the test doubles exactly once per process.
void ensure_test_solvers() {
  static const bool registered = [] {
    SolverRegistry::instance().register_solver(std::make_shared<GatedCountingSolver>());
    SolverRegistry::instance().register_solver(std::make_shared<ThrowingSolver>());
    return true;
  }();
  (void)registered;
}

/// Releases the gate on scope exit so a failing assertion can never leave
/// the service destructor waiting on a blocked flight.
struct GateGuard {
  GateGuard() { GatedCountingSolver::state().reset(); }
  ~GateGuard() { GatedCountingSolver::state().release(); }
};

SolveRequest gated_request(const std::shared_ptr<const core::Problem>& problem,
                           CachePolicy policy, std::uint64_t seed = 5) {
  SolveRequest request;
  request.problem = problem;
  request.solver_id = "test-gated";
  request.params.seed = seed;
  request.params.cache = policy;
  return request;
}

TEST(SolveService, SingleFlightSharesOneSolveAcrossConcurrentTwins) {
  ensure_test_solvers();
  GateGuard gate;
  ResultCache cache(64);
  support::ThreadPool pool(4);
  SolveService service(&pool, &cache);

  constexpr std::size_t kRequests = 8;
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<std::future<SolveResult>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit(gated_request(problem, CachePolicy::kRead)));
  }
  // The flight is registered at submit time, before the leader's task even
  // starts — so with the gate closed, every later twin joined it: this
  // holds deterministically, not just usually.
  EXPECT_EQ(service.stats().dedup_joined, kRequests - 1);
  EXPECT_LE(GatedCountingSolver::state().invocations.load(), 1);

  GatedCountingSolver::state().release();
  std::vector<SolveResult> results;
  results.reserve(kRequests);
  for (auto& future : futures) results.push_back(future.get());

  // Exactly one solver invocation produced all N results.
  EXPECT_EQ(GatedCountingSolver::state().invocations.load(), 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.dedup_joined, kRequests - 1);
  EXPECT_EQ(stats.cache_hits, 0u) << "kRead over an empty cache never hits";

  // All N answers are bit-for-bit the sequential answer.
  const SolveResult sequential =
      timed_solve(*SolverRegistry::instance().find("test-gated"), *problem,
                  gated_request(problem, CachePolicy::kRead).params);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(results[i].status, sequential.status) << i;
    EXPECT_EQ(results[i].mapping, sequential.mapping) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[i].period),
              std::bit_cast<std::uint64_t>(sequential.period))
        << i;
    // The leader computed it; every later twin is marked as shared.
    EXPECT_EQ(results[i].diagnostics.dedup_joined, i > 0) << i;
  }
}

TEST(SolveService, FlightHandsOffToCacheOnceComplete) {
  ensure_test_solvers();
  GateGuard gate;
  GatedCountingSolver::state().release();  // no blocking needed here
  ResultCache cache(64);
  SolveService service(nullptr, &cache);  // serial: each submit completes inline

  const auto problem = std::make_shared<const core::Problem>(small_problem());
  const SolveResult first =
      service.submit(gated_request(problem, CachePolicy::kReadWrite)).get();
  EXPECT_FALSE(first.diagnostics.cache_hit);
  const SolveResult second =
      service.submit(gated_request(problem, CachePolicy::kReadWrite)).get();
  EXPECT_TRUE(second.diagnostics.cache_hit);
  EXPECT_FALSE(second.diagnostics.dedup_joined);

  EXPECT_EQ(GatedCountingSolver::state().invocations.load(), 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.dedup_joined, 0u);
  EXPECT_EQ(second.mapping, first.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(second.period),
            std::bit_cast<std::uint64_t>(first.period));
}

TEST(SolveService, ReadWriteTwinOnAReadLeadersFlightStillPopulatesTheBackend) {
  // CachePolicy is deliberately not part of the cache key, so a kRead
  // request and a kReadWrite twin share one flight. The write-through wish
  // must be honoured whichever of them got there first.
  ensure_test_solvers();
  GateGuard gate;
  ResultCache cache(64);
  support::ThreadPool pool(2);
  {
    SolveService service(&pool, &cache);
    const auto problem = std::make_shared<const core::Problem>(small_problem());
    auto read_future = service.submit(gated_request(problem, CachePolicy::kRead));
    auto write_future = service.submit(gated_request(problem, CachePolicy::kReadWrite));
    EXPECT_EQ(service.stats().dedup_joined, 1u);
    GatedCountingSolver::state().release();
    EXPECT_EQ(read_future.get().status, Status::kFeasible);
    EXPECT_EQ(write_future.get().status, Status::kFeasible);
  }
  EXPECT_EQ(cache.stats().insertions, 1u)
      << "the joiner asked for read-write; the flight must store the result";
  EXPECT_EQ(GatedCountingSolver::state().invocations.load(), 1);
}

TEST(SolveService, ReadOnlyFlightsDoNotPopulateTheBackend) {
  ensure_test_solvers();
  GateGuard gate;
  GatedCountingSolver::state().release();
  ResultCache cache(64);
  SolveService service(nullptr, &cache);
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  EXPECT_EQ(service.submit(gated_request(problem, CachePolicy::kRead)).get().status,
            Status::kFeasible);
  EXPECT_EQ(cache.stats().insertions, 0u) << "kRead never stores";
}

TEST(SolveService, UncacheableRequestsNeverDeduplicate) {
  ensure_test_solvers();
  GateGuard gate;
  ResultCache cache(64);
  support::ThreadPool pool(4);

  constexpr std::size_t kRequests = 3;
  {
    SolveService service(&pool, &cache);
    const auto problem = std::make_shared<const core::Problem>(small_problem());
    std::vector<std::future<SolveResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(service.submit(gated_request(problem, CachePolicy::kOff)));
    }
    EXPECT_EQ(service.stats().dedup_joined, 0u);
    GatedCountingSolver::state().release();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().status, Status::kFeasible);
    }
    EXPECT_EQ(service.stats().solved, kRequests);
  }
  EXPECT_EQ(GatedCountingSolver::state().invocations.load(),
            static_cast<int>(kRequests))
      << "kOff demands an independent solve per request";
}

TEST(SolveService, SolverFailuresArriveAsErrorResultsNotExceptions) {
  ensure_test_solvers();
  ResultCache cache(64);
  support::ThreadPool pool(2);
  SolveService service(&pool, &cache);

  SolveRequest request;
  request.problem = std::make_shared<const core::Problem>(small_problem());
  request.solver_id = "test-throwing";
  request.params.cache = CachePolicy::kReadWrite;
  const SolveResult result = service.submit(std::move(request)).get();
  EXPECT_EQ(result.status, Status::kError);
  EXPECT_EQ(result.diagnostics.solver_id, "test-throwing");
  EXPECT_NE(result.diagnostics.note.find("deliberate test failure"), std::string::npos);
  // kError results are never stored — the next request re-attempts.
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(SolveService, ErrorFlightsDeliverToEveryWaiter) {
  ensure_test_solvers();
  ResultCache cache(64);
  support::ThreadPool pool(2);
  SolveService service(&pool, &cache);

  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request;
    request.problem = problem;
    request.solver_id = "test-throwing";
    request.params.cache = CachePolicy::kRead;
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, Status::kError);
  }
}

TEST(SolveService, UnknownSolverThrowsOnTheCallersThread) {
  ResultCache cache(64);
  SolveService service(nullptr, &cache);
  SolveRequest request;
  request.problem = std::make_shared<const core::Problem>(small_problem());
  request.solver_id = "no-such-solver";
  EXPECT_THROW((void)service.submit(std::move(request)), std::invalid_argument);
  // The callback face resolves the solver the same way: throw now, on this
  // thread — never a callback that silently fails to arrive.
  SolveRequest async_request;
  async_request.problem = std::make_shared<const core::Problem>(small_problem());
  async_request.solver_id = "no-such-solver";
  EXPECT_THROW(service.submit_async(std::move(async_request), [](SolveResult) {}),
               std::invalid_argument);
}

TEST(SolveService, SubmitAsyncDeliversTheSameResultAsTheFutureFace) {
  // submit_async is what the epoll daemon rides: same flight table, same
  // counters, but delivery is a callback on the completing thread instead
  // of a future. A callback waiter and a future waiter joining the same
  // flight must receive bit-identical results.
  ensure_test_solvers();
  GateGuard gate;
  ResultCache cache(64);
  support::ThreadPool pool(2);
  SolveService service(&pool, &cache);

  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::promise<SolveResult> delivered;
  service.submit_async(gated_request(problem, CachePolicy::kRead),
                       [&delivered](SolveResult result) {
                         delivered.set_value(std::move(result));
                       });
  std::future<SolveResult> twin = service.submit(gated_request(problem, CachePolicy::kRead));
  GatedCountingSolver::state().release();

  const SolveResult via_callback = delivered.get_future().get();
  const SolveResult via_future = twin.get();
  EXPECT_EQ(GatedCountingSolver::state().invocations.load(), 1);
  EXPECT_EQ(via_callback.status, Status::kFeasible);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_callback.period),
            std::bit_cast<std::uint64_t>(via_future.period));
  EXPECT_EQ(via_callback.mapping, via_future.mapping);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.dedup_joined, 1u);
}

TEST(SolveService, SubmitAsyncSurfacesSolverFailuresAsErrorResults) {
  ensure_test_solvers();
  ResultCache cache(64);
  support::ThreadPool pool(2);
  SolveService service(&pool, &cache);

  SolveRequest request;
  request.problem = std::make_shared<const core::Problem>(small_problem());
  request.solver_id = "test-throwing";
  request.params.cache = CachePolicy::kRead;
  std::promise<SolveResult> delivered;
  service.submit_async(std::move(request), [&delivered](SolveResult result) {
    delivered.set_value(std::move(result));
  });
  const SolveResult result = delivered.get_future().get();
  EXPECT_EQ(result.status, Status::kError);
  EXPECT_NE(result.diagnostics.note.find("deliberate test failure"), std::string::npos);
}

TEST(SolveService, PooledAndSerialBatchesAgreeBitForBit) {
  ResultCache pooled_cache(1024);
  ResultCache serial_cache(1024);
  const auto problem_a = std::make_shared<const core::Problem>(small_problem(1));
  const auto problem_b = std::make_shared<const core::Problem>(small_problem(2));

  std::vector<SolveRequest> requests;
  for (const auto& problem : {problem_a, problem_b}) {
    for (const char* id : {"H1", "H2", "H4w", "oto"}) {
      SolveRequest request;
      request.problem = problem;
      request.solver_id = id;
      request.params.seed = 17;
      request.params.cache =
          requests.size() % 2 == 0 ? CachePolicy::kReadWrite : CachePolicy::kOff;
      requests.push_back(std::move(request));
    }
  }

  support::ThreadPool pool(4);
  SolveService pooled(&pool, &pooled_cache);
  SolveService serial(nullptr, &serial_cache);
  const std::vector<SolveResult> fan = pooled.solve_all(requests);
  const std::vector<SolveResult> loop = serial.solve_all(requests);
  ASSERT_EQ(fan.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(fan[i].status, loop[i].status) << i;
    EXPECT_EQ(fan[i].mapping, loop[i].mapping) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fan[i].period),
              std::bit_cast<std::uint64_t>(loop[i].period))
        << i;
  }
}

TEST(SolveService, SolveAllLeavesFinalSeedsAloneWhenDerivationIsOff) {
  // Sweeps compute content-addressed seeds themselves and switch the
  // derivation off: solve_all must hand those solvers the seed as given,
  // while a deriving request at the same batch gets stream_seed(seed, i).
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<SolveRequest> requests(3);
  for (SolveRequest& request : requests) {
    request.problem = problem;
    request.solver_id = "H1";  // randomized: the mapping follows the seed
    request.params.seed = 5;
  }
  requests[0].derive_stream_seed = false;
  requests[1].derive_stream_seed = false;

  ResultCache cache(64);
  support::ThreadPool pool(2);
  const std::vector<SolveResult> results = SolveService(&pool, &cache).solve_all(requests);
  ASSERT_EQ(results.size(), requests.size());
  const SolveResult as_given = run(*problem, "H1", {.seed = 5});
  const SolveResult derived = run(*problem, "H1", {.seed = SolveService::stream_seed(5, 2)});
  ASSERT_TRUE(as_given.has_mapping());
  EXPECT_EQ(results[0].mapping, as_given.mapping);
  EXPECT_EQ(results[1].mapping, as_given.mapping);
  EXPECT_EQ(results[2].mapping, derived.mapping);
}

TEST(SolveService, DestructorDrainsOutstandingFlights) {
  ensure_test_solvers();
  GateGuard gate;
  ResultCache cache(64);
  support::ThreadPool pool(2);
  std::future<SolveResult> future;
  {
    SolveService service(&pool, &cache);
    future = service.submit(
        gated_request(std::make_shared<const core::Problem>(small_problem()),
                      CachePolicy::kRead));
    GatedCountingSolver::state().release();
    // The destructor must wait for the flight — the task references the
    // service's flight table and counters.
  }
  EXPECT_EQ(future.get().status, Status::kFeasible);
}

}  // namespace
}  // namespace mf::solve
