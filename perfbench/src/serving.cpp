// serve_mixed: an in-process epoll `serve::Daemon` over a memory-over-disk
// `TieredCache` (a small `ResultCache` over a fresh `DiskCache`), driven
// over loopback by one generator thread.
//
// Open-loop arrivals are Poisson at fixed rates. Request identities (a
// paper-shaped problem plus a heuristic solver id) follow a sliding Zipf
// popularity (kDrift), so every phase mixes hot hits in the memory tier,
// warm hits the memory tier has evicted to disk, and cold misses that solve
// and write through both tiers. Open-loop latency is timed from each
// request's intended send time, so a stall also charges the requests
// queued behind it.
//
// The untraced run prints latency in open-loop blocks at the two pinned
// rates, and reports `ops_per_s`, `p50_ms` and `p99_ms` from closed-loop
// saturation chunks: with a fixed number of requests outstanding the
// reactor never idles and the backlog cannot grow, so the answer rate is
// the highest rate the daemon sustains, and the chunks' own p99 shows it
// within `kLatencyLimitMs`. Blocks and chunks are interleaved in rounds
// through the run.
//
// Request frames are built phase by phase, just before each phase, and the
// identities of one problem share its text, so the generator's inputs stay
// a small part of the process's peak resident set.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "core/io.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/tiered_cache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mf::solve::CacheBackend;
using mf::solve::CacheKey;
using mf::solve::SolveResult;

// --- Pinned load shape ------------------------------------------------------
/// Serving uses 2 solver threads, the daemon's reactor and this
/// benchmark's single generator thread: four busy threads on a 4-core host.
constexpr std::size_t kSolverThreads = 2;
/// Poisson rates: about 1/5 and 2/5 of this mix's saturated rate (1,400 to
/// 1,800/s on a 4-core host). Nearer saturation, queueing amplifies every
/// slow stretch of a shared host: at 800/s the high rate's p50 spread 0.47
/// over ten seeds, at 3/4 of saturation 0.46 over five (README.md).
constexpr double kLowRate = 300.0;
constexpr double kHighRate = 600.0;
/// The latency limit of the saturated rate: well above the p99 of an
/// unsaturated phase (about 30 ms, the slowest H4w+ls solves), so it binds
/// only at the saturation knee. A saturation chunk that misses it is reported.
constexpr double kLatencyLimitMs = 150.0;
/// The untraced run repeats kRounds rounds of a low block, a high block
/// and kChunksPerRound saturation chunks, so each figure samples the whole
/// run rather than one stretch of the host's weather (an odd count gives
/// the blocks' quantiles a middle one). Shares of `--seconds`: low blocks,
/// high blocks, and the chunks get the rest: at 25 s a chunk has about
/// 2,000 answers, twenty beyond its p99.
constexpr std::size_t kRounds = 5;
constexpr std::size_t kChunksPerRound = 2;
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.2;
/// Requests kept outstanding in a saturation chunk: enough that the
/// reactor never waits for one, few enough that their queueing stays far
/// inside the latency limit (32 requests at 1,000/s wait 32 ms).
constexpr std::size_t kSaturationConcurrency = 32;
/// A chunk generates arrivals for this factor times the previous chunk's
/// answer rate (the first: kFirstSaturationGuess), so it runs out of
/// requests only when the daemon has sped up by that much since.
constexpr double kSaturationHeadroom = 2.5;
constexpr double kFirstSaturationGuess = 2000.0;
/// Request identities follow a sliding Zipf popularity: request j asks for
/// identity floor(j * kDrift) + kZipfWindow - 1 - r, with rank r drawn
/// Zipf(1) over [0, kZipfWindow). The newest identities are the most
/// popular and old ones fade, so the process is stationary per request:
/// once warm, every phase at any rate sees about kDrift (10%) first
/// sightings that miss both tiers and solve, and no phase starts cold.
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kZipfWindow = 400;
constexpr double kDrift = 0.10;
/// Memory-tier capacity in entries: three quarters of the live identity
/// window, so less popular identities are evicted and come back as
/// disk-tier hits.
constexpr std::size_t kMemoryEntries = 300;
/// Paper-shaped problems: Figure 6 geometry (m = 10, p = 2) at its upper
/// sizes, so a request's parse and solve cost dominate the host's
/// scheduling noise.
constexpr std::size_t kTaskChoices[] = {80};
constexpr const char* kSolvers[] = {"H2", "H3", "H4w", "H4w+ls"};
constexpr std::size_t kSolverCount = std::size(kSolvers);
constexpr std::size_t kConnections = 64;
constexpr std::size_t kSetupRepeats = 15;
/// At the high rate, long enough for the sliding popularity to reach its
/// steady miss share.
constexpr double kWarmupSeconds = 2.0;
/// A phase whose backlog has not drained this long after its last send
/// ends the run with an error: the daemon has wedged.
constexpr double kDrainLimitSeconds = 10.0;
constexpr std::int64_t kStatsIntervalNs = 10'000'000;

// --- Cache-tier timing decorator -------------------------------------------

/// Times every lookup and insert of one `TieredCache` tier while the
/// tracer is on.
class TimedTier final : public CacheBackend {
 public:
  TimedTier(std::string name, CacheBackend& inner, Tracer& tracer)
      : name_(std::move(name)), inner_(inner), tracer_(tracer) {}

  std::optional<SolveResult> lookup(const CacheKey& key) override {
    if (!tracer_.enabled()) return inner_.lookup(key);
    const std::int64_t start = now_ns();
    std::optional<SolveResult> hit = inner_.lookup(key);
    const std::int64_t end = now_ns();
    tracer_.record("cache." + name_ + ".lookup", start, end);
    const std::lock_guard<std::mutex> lock(mutex_);
    lookup_us_.push_back(static_cast<double>(end - start) / 1e3);
    hits_ += hit.has_value() ? 1 : 0;
    return hit;
  }

  void insert(const CacheKey& key, const SolveResult& result) override {
    if (!tracer_.enabled()) return inner_.insert(key, result);
    const std::int64_t start = now_ns();
    inner_.insert(key, result);
    const std::int64_t end = now_ns();
    tracer_.record("cache." + name_ + ".insert", start, end);
    const std::lock_guard<std::mutex> lock(mutex_);
    insert_us_.push_back(static_cast<double>(end - start) / 1e3);
  }

  [[nodiscard]] mf::solve::CacheStats stats() const override { return inner_.stats(); }
  void clear() override { inner_.clear(); }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  void report(Report& report) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string prefix = "cache." + name_;
    report.add(prefix + ".lookup_us.p50", quantile(lookup_us_, 0.5), "us");
    report.add(prefix + ".lookup_us.p99", quantile(lookup_us_, 0.99), "us");
    report.add(prefix + ".insert_us.p50", quantile(insert_us_, 0.5), "us");
    report.add(prefix + ".insert_us.p99", quantile(insert_us_, 0.99), "us");
    report.add(prefix + ".hit_share",
               lookup_us_.empty() ? 0.0
                                  : static_cast<double>(hits_) /
                                        static_cast<double>(lookup_us_.size()),
               "ratio");
  }

 private:
  std::string name_;
  CacheBackend& inner_;
  Tracer& tracer_;
  mutable std::mutex mutex_;
  std::vector<double> lookup_us_;
  std::vector<double> insert_us_;
  std::uint64_t hits_ = 0;
};

// --- Inputs -------------------------------------------------------------------

struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  std::uint32_t identity = 0;
};

struct Phase {
  std::string name;
  double rate = 0.0;
  /// 0: open loop, each arrival sent at its due time. Otherwise closed
  /// loop: this many requests are kept outstanding, each answer releases
  /// the next arrival, due times are ignored, and nothing is sent after
  /// `length_ns`.
  std::size_t concurrency = 0;
  bool traced = false;
  std::vector<Arrival> arrivals;
  std::int64_t length_ns = 0;
};

/// The request stream: Poisson arrival times per phase, identities from
/// the sliding Zipf process, continued across phases. Request j's identity
/// depends only on j, so a closed-loop phase that sends only some of its
/// arrivals hands the rest to the next phase unchanged (`advance`).
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed)
      : seed_(mf::support::mix_seed(seed, 0x5E7E)), rng_(seed_) {
    double total = 0.0;
    for (std::size_t k = 0; k < kZipfWindow; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
  }

  Phase phase(std::string name, double rate, double seconds) {
    Phase phase;
    phase.name = std::move(name);
    phase.rate = rate;
    phase.length_ns = static_cast<std::int64_t>(seconds * 1e9);
    double t = 0.0;
    std::uint64_t j = requests_;
    while (true) {
      t += rng_.exponential(1.0 / rate);
      if (t >= seconds) break;
      phase.arrivals.push_back({static_cast<std::int64_t>(t * 1e9), identity(j++)});
    }
    return phase;
  }

  /// Marks the first `sent` arrivals of the last phase as used.
  void advance(std::uint64_t sent) noexcept { requests_ += sent; }

 private:
  std::uint32_t identity(std::uint64_t j) const {
    mf::support::Rng draw(mf::support::mix_seed(seed_, j));
    const double u = draw.uniform() * cdf_.back();
    const auto rank = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(), kZipfWindow - 1));
    // The newest identity in the window is the most popular one.
    const auto base = static_cast<std::uint32_t>(static_cast<double>(j) * kDrift);
    return base + (kZipfWindow - 1 - rank);
  }

  std::uint64_t seed_;
  mf::support::Rng rng_;
  std::vector<double> cdf_;
  std::uint64_t requests_ = 0;
};

/// The problem behind identities id with id / kSolverCount == index.
std::shared_ptr<const mf::core::Problem> make_problem(std::uint64_t seed, std::uint32_t index) {
  mf::exp::Scenario scenario;
  scenario.machines = 10;
  scenario.types = 2;
  scenario.tasks = kTaskChoices[index % std::size(kTaskChoices)];
  return mf::exp::ScenarioRegistry::instance()
      .resolve("iid")
      ->generate(scenario, mf::support::mix_seed(seed, index))
      .problem;
}

mf::solve::SolveRequest make_request(std::shared_ptr<const mf::core::Problem> problem,
                                     std::size_t solver) {
  mf::solve::SolveRequest request;
  request.problem = std::move(problem);
  request.solver_id = kSolvers[solver];
  request.params.cache = mf::solve::CachePolicy::kReadWrite;
  request.params.scenario = "iid";
  return request;
}

/// The request behind one identity, rebuilt from the seed.
mf::solve::SolveRequest identity_request(std::uint64_t seed, std::uint32_t id) {
  return make_request(make_problem(seed, id / kSolverCount), id % kSolverCount);
}

/// The solve frames of one problem's identities, one per solver. Each
/// frame is `head[s] + text + tail[s]`: the problem's text is held once for
/// all of them. (Should a frame not carry the text verbatim, `text` is
/// empty and each head holds its whole frame.)
struct ProblemFrames {
  std::string text;
  std::array<std::string, kSolverCount> head;
  std::array<std::string, kSolverCount> tail;
};

ProblemFrames build_frames(std::uint64_t seed, std::uint32_t index) {
  const std::shared_ptr<const mf::core::Problem> problem = make_problem(seed, index);
  ProblemFrames frames;
  frames.text = mf::core::to_text(*problem);
  std::array<std::string, kSolverCount> bytes;
  bool split = true;
  for (std::size_t s = 0; s < kSolverCount; ++s) {
    mf::serve::WireRequest wire;
    wire.client_id = "perfbench";
    wire.request = make_request(problem, s);
    bytes[s] = mf::serve::frame_to_bytes(
        {mf::serve::FrameType::kSolve, mf::serve::request_to_text(wire)});
    split = split && bytes[s].find(frames.text) != std::string::npos;
  }
  if (!split) frames.text.clear();
  for (std::size_t s = 0; s < kSolverCount; ++s) {
    const std::size_t at = split ? bytes[s].find(frames.text) : bytes[s].size();
    frames.head[s] = bytes[s].substr(0, at);
    frames.tail[s] = bytes[s].substr(std::min(bytes[s].size(), at + frames.text.size()));
  }
  return frames;
}

/// The frames of the identities the current phase sends.
class Inputs {
 public:
  Inputs(std::uint64_t seed, mf::support::ThreadPool& pool) : seed_(seed), pool_(pool) {}

  /// Builds the frames of every problem `phase` asks for, across the pool,
  /// and drops those of problems it does not.
  void prepare(const Phase& phase) {
    std::unordered_map<std::uint32_t, ProblemFrames> kept;
    std::vector<std::uint32_t> missing;
    for (const Arrival& arrival : phase.arrivals) {
      const std::uint32_t index = arrival.identity / kSolverCount;
      if (kept.count(index)) continue;
      const auto it = problems_.find(index);
      if (it != problems_.end()) {
        kept.emplace(index, std::move(it->second));
      } else {
        kept.try_emplace(index);
        missing.push_back(index);
      }
    }
    mf::support::parallel_for(pool_, missing.size(), [&](std::size_t k) {
      kept.at(missing[k]) = build_frames(seed_, missing[k]);
    });
    problems_ = std::move(kept);
  }

  [[nodiscard]] const ProblemFrames& frames(std::uint32_t id) const {
    return problems_.at(id / kSolverCount);
  }

 private:
  std::uint64_t seed_;
  mf::support::ThreadPool& pool_;
  std::unordered_map<std::uint32_t, ProblemFrames> problems_;
};

// --- The open-loop generator --------------------------------------------------

/// An owned file descriptor, closed on destruction.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

/// A non-blocking loopback connection to the daemon's port.
std::unique_ptr<Fd> connect_loopback(std::uint16_t port) {
  auto fd = std::make_unique<Fd>(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd->get() < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd->get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error(std::string("connect() failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd->get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd->get(), F_SETFL, ::fcntl(fd->get(), F_GETFL) | O_NONBLOCK);
  return fd;
}

struct PhaseResult {
  double rate = 0.0;               ///< the phase's Poisson rate
  double answered_s = 0.0;         ///< phase start to last answer
  double answered_per_s = 0.0;     ///< answers / answered_s
  std::vector<double> latency_ms;  ///< answered requests, from intended send
  std::vector<double> lag_ms;      ///< generator lateness per send
  std::vector<double> queue_depth; ///< stats-endpoint samples (traced phases)
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;        ///< error frames, unparsable or lost replies
  double drain_ms = 0.0;           ///< last answer after the last send
  double cpu_cores = 0.0;          ///< process CPU time / phase wall time
};

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

/// What the first answer for an identity said; later answers must match.
struct Answer {
  mf::solve::Status status = mf::solve::Status::kError;
  double period = 0.0;
  std::vector<mf::core::MachineIndex> assignment;
  /// The first response body: a repeat answer with identical bytes needs
  /// no decoding, which keeps the generator thread off the critical path.
  std::string body;
  std::uint64_t responses = 0;
};

bool same_answer(const Answer& answer, const SolveResult& result) {
  const std::vector<mf::core::MachineIndex> empty;
  return answer.status == result.status &&
         std::memcmp(&answer.period, &result.period, sizeof answer.period) == 0 &&
         answer.assignment == (result.mapping ? result.mapping->assignment() : empty);
}

class OpenLoop {
 public:
  OpenLoop(std::uint16_t port, const Inputs& inputs, Tracer& tracer, SolverLedger& ledger)
      : inputs_(inputs), tracer_(tracer), ledger_(ledger) {
    if (epoll_fd_.get() < 0 || timer_fd_.get() < 0) {
      throw std::runtime_error("epoll/timerfd failed");
    }
    watch(timer_fd_.get(), kTimerTag, EPOLLIN);
    for (std::size_t i = 0; i <= kConnections; ++i) {
      connections_.push_back(std::make_unique<Connection>());
      connections_.back()->fd = connect_loopback(port);
      watch(connections_.back()->fd->get(), i, EPOLLIN);
    }
  }

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  PhaseResult run(const Phase& phase) {
    PhaseResult result;
    result.rate = phase.rate;
    phase_ = &phase;
    result_ = &result;
    const ScopedSpan phase_span(tracer_, "bench.phase." + phase.name);
    phase_span_ = phase_span.id();
    const bool closed = phase.concurrency > 0;
    const std::size_t total = phase.arrivals.size();
    start_ns_ = now_ns() + (closed ? 0 : 1'000'000);
    sent_ns_.assign(total, 0);
    const double cpu_start = process_cpu_seconds();
    // Open loop sends each arrival at its due time; closed loop sends while
    // fewer than `concurrency` are outstanding, until the phase's end.
    const std::int64_t last_send =
        start_ns_ + (closed ? phase.length_ns : total == 0 ? 0 : phase.arrivals.back().due_ns);
    const std::int64_t give_up = last_send + static_cast<std::int64_t>(kDrainLimitSeconds * 1e9);
    std::size_t next = 0;
    const auto due = [&](std::int64_t now) {
      if (next >= total) return false;
      if (closed) return outstanding_ < phase.concurrency && now < last_send;
      return start_ns_ + phase.arrivals[next].due_ns <= now;
    };
    next_stats_ns_ = start_ns_;
    last_answer_ns_ = start_ns_;
    epoll_event events[64];
    while (outstanding_ > 0 || (next < total && (!closed || now_ns() < last_send))) {
      std::int64_t now = now_ns();
      while (due(now)) {
        send(next++, now);
        now = now_ns();
      }
      if (tracer_.enabled() && now >= next_stats_ns_) send_stats(now);
      if (now > give_up) {
        throw std::runtime_error("phase " + phase.name + " did not drain: " +
                                 std::to_string(outstanding_) + " requests unanswered");
      }
      std::int64_t wake = give_up;
      if (next < total && !closed) wake = start_ns_ + phase.arrivals[next].due_ns;
      if (tracer_.enabled()) wake = std::min(wake, next_stats_ns_);
      arm_timer(wake - now);
      const int ready = ::epoll_wait(epoll_fd_.get(), events, 64, -1);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
      for (int e = 0; e < ready; ++e) {
        const std::uint64_t tag = events[e].data.u64;
        if (tag == kTimerTag) {
          std::uint64_t expirations = 0;
          (void)!::read(timer_fd_.get(), &expirations, sizeof expirations);
          continue;
        }
        Connection& connection = *connections_[tag];
        if (events[e].events & EPOLLOUT) flush(connection, tag);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) receive(connection, tag);
      }
    }
    // Drain the stats connection so the next phase starts clean.
    while (stats_outstanding_) {
      const int ready = ::epoll_wait(epoll_fd_.get(), events, 64, 1000);
      if (ready <= 0) break;
      for (int e = 0; e < ready; ++e) {
        if (events[e].data.u64 == kStatsConnection) {
          receive(*connections_[kStatsConnection], kStatsConnection);
        }
      }
    }
    result.sent = next;
    result.drain_ms = next == 0 ? 0.0 : ns_to_ms(last_answer_ns_ - sent_ns_[next - 1]);
    result.answered_s = std::max(1e-9, ns_to_s(last_answer_ns_ - start_ns_));
    result.answered_per_s = static_cast<double>(result.latency_ms.size()) / result.answered_s;
    result.cpu_cores = (process_cpu_seconds() - cpu_start) / ns_to_s(now_ns() - start_ns_);
    return result;
  }

  [[nodiscard]] const std::unordered_map<std::uint32_t, Answer>& answers() const noexcept {
    return answers_;
  }
  [[nodiscard]] std::uint64_t inconsistent() const noexcept { return inconsistent_; }

 private:
  static constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};
  /// The last connection carries only stats frames.
  static constexpr std::size_t kStatsConnection = kConnections;

  struct Connection {
    std::unique_ptr<Fd> fd;
    std::string out;
    std::size_t out_sent = 0;
    std::string in;
    std::deque<std::size_t> inflight;  ///< arrival indices, in send order
    bool want_write = false;
  };

  void watch(int fd, std::uint64_t tag, std::uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      throw std::runtime_error("epoll_ctl failed");
    }
  }

  void set_write_interest(Connection& connection, std::uint64_t tag, bool want) {
    if (connection.want_write == want) return;
    connection.want_write = want;
    epoll_event event{};
    event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    event.data.u64 = tag;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, connection.fd->get(), &event);
  }

  void arm_timer(std::int64_t delay_ns) {
    itimerspec spec{};
    delay_ns = std::max<std::int64_t>(delay_ns, 1000);
    spec.it_value.tv_sec = static_cast<time_t>(delay_ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(delay_ns % 1'000'000'000);
    ::timerfd_settime(timer_fd_.get(), 0, &spec, nullptr);
  }

  /// Sends arrival `index`. Its latency counts from its due time open
  /// loop, and from now closed loop.
  void send(std::size_t index, std::int64_t now) {
    const Arrival& arrival = phase_->arrivals[index];
    if (phase_->concurrency > 0) {
      sent_ns_[index] = now;
    } else {
      sent_ns_[index] = start_ns_ + arrival.due_ns;
      result_->lag_ms.push_back(ns_to_ms(now - sent_ns_[index]));
    }
    // The least-loaded request connection; ties go round-robin so idle
    // connections share the load.
    std::size_t best = cursor_;
    for (std::size_t k = 0; k < kConnections; ++k) {
      const std::size_t c = (cursor_ + k) % kConnections;
      if (connections_[c]->inflight.size() < connections_[best]->inflight.size()) best = c;
      if (connections_[best]->inflight.empty()) break;
    }
    cursor_ = (best + 1) % kConnections;
    Connection& connection = *connections_[best];
    const ProblemFrames& frames = inputs_.frames(arrival.identity);
    const std::size_t solver = arrival.identity % kSolverCount;
    const std::string_view pieces[] = {frames.head[solver], frames.text, frames.tail[solver]};
    connection.inflight.push_back(index);
    ++outstanding_;
    std::size_t written = 0;
    if (connection.out.empty()) {
      // Nothing queued: write straight from the pieces, buffering only
      // what the socket did not take.
      iovec parts[std::size(pieces)];
      for (std::size_t k = 0; k < std::size(pieces); ++k) {
        parts[k] = {const_cast<char*>(pieces[k].data()), pieces[k].size()};
      }
      const ::ssize_t wrote = ::writev(connection.fd->get(), parts, std::size(parts));
      if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error(std::string("write to daemon failed: ") + std::strerror(errno));
      }
      written = wrote > 0 ? static_cast<std::size_t>(wrote) : 0;
    }
    for (const std::string_view piece : pieces) {
      const std::size_t skip = std::min(written, piece.size());
      connection.out.append(piece.substr(skip));
      written -= skip;
    }
    if (!connection.out.empty()) flush(connection, best);
  }

  void send_stats(std::int64_t now) {
    next_stats_ns_ = now + kStatsIntervalNs;
    if (stats_outstanding_) return;
    Connection& connection = *connections_[kStatsConnection];
    connection.out += mf::serve::frame_to_bytes({mf::serve::FrameType::kStats, ""});
    stats_outstanding_ = true;
    flush(connection, kStatsConnection);
  }

  void flush(Connection& connection, std::uint64_t tag) {
    while (connection.out_sent < connection.out.size()) {
      const ::ssize_t wrote = ::write(connection.fd->get(), connection.out.data() + connection.out_sent,
                                      connection.out.size() - connection.out_sent);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("write to daemon failed: ") + std::strerror(errno));
      }
      connection.out_sent += static_cast<std::size_t>(wrote);
    }
    if (connection.out_sent == connection.out.size()) {
      connection.out.clear();
      connection.out_sent = 0;
    }
    set_write_interest(connection, tag, !connection.out.empty());
  }

  void receive(Connection& connection, std::uint64_t tag) {
    char buffer[1 << 16];
    while (true) {
      const ::ssize_t got = ::read(connection.fd->get(), buffer, sizeof buffer);
      if (got > 0) {
        connection.in.append(buffer, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("daemon closed a connection");
    }
    std::size_t offset = 0;
    while (true) {
      const std::size_t newline = connection.in.find('\n', offset);
      if (newline == std::string::npos) break;
      const mf::serve::HeaderParse header = mf::serve::parse_frame_header(
          connection.in.substr(offset, newline - offset), 64u << 20);
      if (header.status != mf::serve::ReadStatus::kOk) {
        throw std::runtime_error("malformed response header: " + header.detail);
      }
      if (connection.in.size() - (newline + 1) < header.length) break;
      const std::string_view body(connection.in.data() + newline + 1, header.length);
      offset = newline + 1 + header.length;
      if (tag == kStatsConnection) {
        on_stats(body);
      } else {
        const std::size_t index = connection.inflight.front();
        connection.inflight.pop_front();
        on_answer(index, header.type, body);
      }
    }
    connection.in.erase(0, offset);
  }

  void on_stats(std::string_view body) {
    stats_outstanding_ = false;
    if (const auto stats = mf::serve::stats_from_text(std::string(body))) {
      result_->queue_depth.push_back(static_cast<double>(stats->pool_queue_depth));
    }
  }

  void on_answer(std::size_t index, mf::serve::FrameType type, std::string_view body) {
    const std::int64_t done = now_ns();
    --outstanding_;
    last_answer_ns_ = std::max(last_answer_ns_, done);
    const Arrival& arrival = phase_->arrivals[index];
    const std::int64_t intended = sent_ns_[index];
    if (type != mf::serve::FrameType::kOk) {
      ++result_->errors;
      return;
    }
    auto [it, fresh] = answers_.try_emplace(arrival.identity);
    Answer& answer = it->second;
    if (fresh || body != answer.body) {
      const auto entry = mf::solve::entry_from_text(std::string(body));
      if (!entry.has_value()) {
        ++result_->errors;
        if (fresh) answers_.erase(it);
        return;
      }
      const SolveResult& result = entry->second;
      if (fresh) {
        // The first answer for an identity is its one real solve: the
        // daemon deduplicates concurrent twins and its disk tier never
        // evicts.
        answer.status = result.status;
        answer.period = result.period;
        if (result.mapping) answer.assignment = result.mapping->assignment();
        answer.body = body;
        if (tracer_.enabled()) ledger_.add(result);
      } else if (!same_answer(answer, result)) {
        ++inconsistent_;
      }
    }
    ++answer.responses;
    result_->latency_ms.push_back(ns_to_ms(done - intended));
    tracer_.record("serve.request", intended, done, phase_span_, index + 1);
  }

  const Inputs& inputs_;
  Tracer& tracer_;
  SolverLedger& ledger_;
  Fd epoll_fd_{::epoll_create1(EPOLL_CLOEXEC)};
  Fd timer_fd_{::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)};
  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t cursor_ = 0;
  const Phase* phase_ = nullptr;
  PhaseResult* result_ = nullptr;
  std::uint64_t phase_span_ = 0;
  std::int64_t start_ns_ = 0;
  std::vector<std::int64_t> sent_ns_;  ///< per arrival: when its latency starts
  std::int64_t last_answer_ns_ = 0;
  std::int64_t next_stats_ns_ = 0;
  bool stats_outstanding_ = false;
  std::size_t outstanding_ = 0;
  std::unordered_map<std::uint32_t, Answer> answers_;
  std::uint64_t inconsistent_ = 0;
};

// --- The served system --------------------------------------------------------

/// A fresh directory, removed with everything in it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// The daemon and its cache tiers over a fresh cache directory, torn down
/// in reverse order.
class ServedSystem {
 public:
  ServedSystem(const std::string& cache_dir, bool timed_tiers, Tracer& tracer)
      : dir_(cache_dir), memory_(kMemoryEntries), disk_(dir_.path()) {
    CacheBackend* fast = &memory_;
    CacheBackend* slow = &disk_;
    if (timed_tiers) {
      timed_memory_ = std::make_unique<TimedTier>("mem", memory_, tracer);
      timed_disk_ = std::make_unique<TimedTier>("disk", disk_, tracer);
      fast = timed_memory_.get();
      slow = timed_disk_.get();
    }
    tiered_ = std::make_unique<mf::solve::TieredCache>(*fast, *slow);
    mf::serve::DaemonOptions options;
    options.threads = kSolverThreads;
    options.backend = mf::serve::ServeBackend::kEpoll;
    // Open loop: overload must show as latency, never as refusals.
    options.max_pending = 1u << 20;
    options.cache = tiered_.get();
    daemon_ = std::make_unique<mf::serve::Daemon>(options);
    daemon_->start();
  }

  ~ServedSystem() {
    daemon_->drain();
    daemon_->wait();
  }

  ServedSystem(const ServedSystem&) = delete;
  ServedSystem& operator=(const ServedSystem&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return daemon_->port(); }
  [[nodiscard]] const TimedTier* timed_memory() const { return timed_memory_.get(); }
  [[nodiscard]] const TimedTier* timed_disk() const { return timed_disk_.get(); }

 private:
  ScratchDir dir_;
  mf::solve::ResultCache memory_;
  mf::solve::DiskCache disk_;
  std::unique_ptr<TimedTier> timed_memory_;
  std::unique_ptr<TimedTier> timed_disk_;
  std::unique_ptr<mf::solve::TieredCache> tiered_;
  std::unique_ptr<mf::serve::Daemon> daemon_;
};

/// The q-quantile of `phases` by `block_quantile`: phases of one kind are
/// spread through the run, so a slow stretch of the host moves one block,
/// not the figure.
double block_latency(const std::vector<const PhaseResult*>& phases, double q) {
  std::vector<std::vector<double>> samples;
  for (const PhaseResult* phase : phases) samples.push_back(phase->latency_ms);
  return block_quantile(samples, q);
}

/// A phase meets the latency limit when nothing failed, its p99 is within
/// the limit, and its backlog drained within the limit after its last
/// send: a backlog that starts growing late in a phase shows in the drain
/// even when the phase's p99 does not.
bool meets_limit(const PhaseResult& result) {
  return result.errors == 0 && quantile(result.latency_ms, 0.99) <= kLatencyLimitMs &&
         result.drain_ms <= kLatencyLimitMs;
}

}  // namespace

void run_serve_mixed(const Args& args, Tracer& tracer, Report& report) {
  const bool traced_run = tracer.enabled();
  tracer.set_enabled(false);
  report.stamp.emplace_back("solver_threads", std::to_string(kSolverThreads));
  report.stamp.emplace_back("reactor_threads", "1");
  report.stamp.emplace_back("generator_threads", "1");

  // Set-up: the input pool, the request stream and the warm-up phase's
  // frames, a fresh cache directory, the daemon, and the generator's
  // connections. Repeated, each repetition torn down before the next is
  // built; the last one runs.
  std::vector<double> setup_s;
  SolverLedger ledger;
  std::unique_ptr<mf::support::ThreadPool> input_pool;
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<ServedSystem> system;
  std::unique_ptr<OpenLoop> loop;
  Phase warmup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    loop.reset();
    system.reset();
    inputs.reset();
    input_pool.reset();
    const std::int64_t start = now_ns();
    input_pool =
        std::make_unique<mf::support::ThreadPool>(std::max(1u, std::thread::hardware_concurrency()));
    stream = std::make_unique<RequestStream>(args.seed);
    warmup = stream->phase("warmup", kHighRate, kWarmupSeconds);
    inputs = std::make_unique<Inputs>(args.seed, *input_pool);
    inputs->prepare(warmup);
    const std::string cache_dir = std::string(kWorkDir) + "/serve-cache-" +
                                  std::to_string(::getpid()) + "-" + std::to_string(i);
    system = std::make_unique<ServedSystem>(cache_dir, traced_run, tracer);
    loop = std::make_unique<OpenLoop>(system->port(), *inputs, tracer, ledger);
    setup_s.push_back(ns_to_s(now_ns() - start));
  }

  std::map<std::string, PhaseResult> results;
  std::optional<mf::serve::DaemonStatsSnapshot> traced_before;
  std::optional<mf::serve::DaemonStatsSnapshot> traced_after;
  auto stats_client = std::make_unique<mf::serve::Client>("127.0.0.1", system->port());
  // Runs one phase after building its frames.
  const auto run = [&](Phase phase) -> const PhaseResult& {
    inputs->prepare(phase);
    if (phase.traced && !traced_before) traced_before = stats_client->stats();
    tracer.set_enabled(phase.traced);
    PhaseResult& result = results[phase.name] = loop->run(phase);
    tracer.set_enabled(false);
    stream->advance(result.sent);
    report.attempted += result.sent;
    report.failed += result.errors;
    return result;
  };
  run(std::move(warmup));
  const double s = args.seconds;
  std::vector<const PhaseResult*> low_blocks;
  std::vector<const PhaseResult*> high_blocks;
  std::vector<const PhaseResult*> saturated;
  if (!args.trace) {
    // ops_per_s: the answer rate with the daemon kept saturated, over all
    // chunks together.
    const double chunk_s =
        (1.0 - kLowShare - kHighShare) * s / static_cast<double>(kRounds * kChunksPerRound);
    double guess = kFirstSaturationGuess;
    for (std::size_t r = 1; r <= kRounds; ++r) {
      const std::string round = std::to_string(r);
      low_blocks.push_back(&run(stream->phase("low" + round, kLowRate, kLowShare * s / kRounds)));
      high_blocks.push_back(
          &run(stream->phase("high" + round, kHighRate, kHighShare * s / kRounds)));
      for (std::size_t k = 1; k <= kChunksPerRound; ++k) {
        Phase chunk = stream->phase("saturate" + round + "." + std::to_string(k),
                                    kSaturationHeadroom * guess, chunk_s);
        chunk.concurrency = kSaturationConcurrency;
        const PhaseResult& result = run(std::move(chunk));
        guess = result.answered_per_s;
        saturated.push_back(&result);
      }
    }
  } else {
    // An untraced low phase as the overhead baseline, then the traced
    // phases the per-layer metrics come from.
    run(stream->phase("low", kLowRate, 0.25 * s));
    Phase low_traced = stream->phase("low-traced", kLowRate, 0.25 * s);
    low_traced.traced = true;
    run(std::move(low_traced));
    Phase high_traced = stream->phase("high-traced", kHighRate, 0.5 * s);
    high_traced.traced = true;
    run(std::move(high_traced));
  }
  if (traced_run) traced_after = stats_client->stats();
  stats_client.reset();

  // Correctness: answers for one identity must agree, and each distinct
  // identity must equal an in-process solve of the same request.
  std::uint64_t wrong_identities = 0;
  std::uint64_t wrong_responses = loop->inconsistent();
  {
    std::vector<std::pair<std::uint32_t, const Answer*>> distinct;
    for (const auto& [id, answer] : loop->answers()) distinct.emplace_back(id, &answer);
    std::vector<char> wrong(distinct.size(), 0);
    mf::support::parallel_for(*input_pool, distinct.size(), [&](std::size_t k) {
      const mf::solve::SolveRequest request = identity_request(args.seed, distinct[k].first);
      mf::solve::SolveParams params = request.params;
      params.cache = mf::solve::CachePolicy::kOff;
      const SolveResult local = mf::solve::run(*request.problem, request.solver_id, params);
      wrong[k] = same_answer(*distinct[k].second, local) ? 0 : 1;
    });
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      if (wrong[k]) {
        ++wrong_identities;
        wrong_responses += distinct[k].second->responses;
      }
    }
  }
  report.failed += wrong_responses;
  if (wrong_identities > 0) {
    report.fail_check(std::to_string(wrong_identities) +
                      " identities differ from an in-process solve");
  }
  if (loop->inconsistent() > 0) {
    report.fail_check(std::to_string(loop->inconsistent()) +
                      " answers differ from the first answer for their identity");
  }
  std::uint64_t errors = 0;
  for (const auto& [name, result] : results) errors += result.errors;
  if (errors > 0) report.fail_check(std::to_string(errors) + " requests failed or were refused");

  loop.reset();
  const ServedSystem* served = system.get();
  if (!args.trace) {
    double answers = 0.0;
    double answering_s = 0.0;
    for (const PhaseResult* chunk : saturated) {
      answers += static_cast<double>(chunk->latency_ms.size());
      answering_s += chunk->answered_s;
    }
    // Latency is read in the saturation chunks, where 32 callers each wait
    // for their answer: at the fixed open-loop rates the reactor idles
    // between requests and the medians followed the host's wake-up latency
    // (README.md, "Noise"), so those are printed, not reported.
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s", answers / answering_s, "1/s");
    report.add("p50_ms", block_latency(saturated, 0.5), "ms");
    report.add("p99_ms", block_latency(saturated, 0.99), "ms");
    std::printf("open loop: low %.0f/s p50 %.6g ms p99 %.6g ms; high %.0f/s p50 %.6g ms "
                "p99 %.6g ms; saturated %.6g/s\n",
                kLowRate, block_latency(low_blocks, 0.5), block_latency(low_blocks, 0.99),
                kHighRate, block_latency(high_blocks, 0.5), block_latency(high_blocks, 0.99),
                answers / answering_s);
    for (const PhaseResult* chunk : saturated) {
      if (!meets_limit(*chunk)) {
        std::printf("note: a saturation chunk missed the %.0f ms limit (p99 %.3f ms, drain "
                    "%.3f ms): ops_per_s is above the highest rate that meets it\n",
                    kLatencyLimitMs, quantile(chunk->latency_ms, 0.99), chunk->drain_ms);
      }
    }
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    for (const auto& [name, result] : results) {
      std::printf("phase %s: %.0f/s offered, %.0f/s answered, %llu sent, p50 %.3f ms, "
                  "p99 %.3f ms, drain %.3f ms, lag p99 %.3f ms, %.2f cores busy\n",
                  name.c_str(), result.rate, result.answered_per_s,
                  static_cast<unsigned long long>(result.sent), quantile(result.latency_ms, 0.5),
                  quantile(result.latency_ms, 0.99), result.drain_ms,
                  quantile(result.lag_ms, 0.99), result.cpu_cores);
    }
  } else {
    served->timed_memory()->report(report);
    served->timed_disk()->report(report);
    ledger.report(report);
    std::vector<double> latency;
    std::vector<double> lag;
    std::vector<double> depth;
    std::uint64_t requests = 0;
    for (const char* name : {"low-traced", "high-traced"}) {
      const PhaseResult& result = results.at(name);
      latency.insert(latency.end(), result.latency_ms.begin(), result.latency_ms.end());
      lag.insert(lag.end(), result.lag_ms.begin(), result.lag_ms.end());
      depth.insert(depth.end(), result.queue_depth.begin(), result.queue_depth.end());
      requests += result.sent;
    }
    if (traced_before && traced_after) {
      const auto& before = *traced_before;
      const auto& after = *traced_after;
      const auto delta = [](std::uint64_t later, std::uint64_t earlier) {
        return static_cast<double>(later - earlier);
      };
      report.add("service.solved", delta(after.service.solved, before.service.solved), "count");
      report.add("service.cache_hits",
                 delta(after.service.cache_hits, before.service.cache_hits), "count");
      report.add("service.dedup_joined",
                 delta(after.service.dedup_joined, before.service.dedup_joined), "count");
      report.add("serve.rejected",
                 delta(after.service.rejected_queue_full + after.service.rejected_rate_limited,
                       before.service.rejected_queue_full + before.service.rejected_rate_limited),
                 "count");
      report.add("serve.daemon_p50_ms", after.latency_p50_ms, "ms");
      report.add("serve.daemon_p99_ms", after.latency_p99_ms, "ms");
      report.add("serve.wire_p50_ms", quantile(latency, 0.5) - after.latency_p50_ms, "ms");
      report.add("serve.loop_wakeups_per_req",
                 requests == 0 ? 0.0
                               : delta(after.loop_wakeups, before.loop_wakeups) /
                                     static_cast<double>(requests),
                 "ratio");
    } else {
      report.fail_check("stats endpoint did not answer");
    }
    report.add("service.queue_depth_p99", quantile(depth, 0.99), "count");
    report.add("bench.gen_lag_p99_ms", quantile(lag, 0.99), "ms");
    report.add("bench.trace_overhead_share",
               quantile(results.at("low-traced").latency_ms, 0.5) /
                       quantile(results.at("low").latency_ms, 0.5) -
                   1.0,
               "ratio");
  }
}

}  // namespace perfbench
