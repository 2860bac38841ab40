// sim_campaign: sim::Simulator::run on fixed mappings under the iid model,
// the correlated model with its shock played as a factory-wide arrival
// process, and machine downtime — the simulator lies on no sweep or
// serving path, so only this workload measures it.
//
// Each repetition runs every campaign once across a pool of `nproc`
// threads, each campaign's run on one thread. One thread's speed on a
// shared host swings by a third with what its neighbours do, and those
// swings are independent enough between cores that the pool's aggregate
// rate swings much less.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "sim/simulator.hpp"
#include "solve/solver.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Paper-shaped lines (Figure 6 geometry at n = 40) and a pinned output
/// target: one campaign set, eight lines per family, is about 1.2 s of one
/// thread's time on a 4-core host.
constexpr std::size_t kTasks = 40;
constexpr std::size_t kMachines = 10;
constexpr std::size_t kTypes = 2;
constexpr std::uint64_t kOutputs = 5'000;
constexpr std::size_t kInstancesPerFamily = 8;
constexpr std::size_t kSetupRepeats = 51;
/// The lines are drawn from this pinned seed and the run's seed drives the
/// simulations' random streams. Each campaign is 1/24 of the runs, so the
/// p99 run time is the slowest line's: with lines drawn from the run's
/// seed it followed how much work that seed's slowest line needed (spread
/// 0.30 over five seeds), not the simulator.
constexpr std::uint64_t kLineSeed = 0x6c696e65;
/// A campaign's measured period must land within this share of the
/// model's analytic period (a loose sanity bound: 5k outputs put the
/// statistical error near 2%).
constexpr double kPeriodTolerance = 0.15;

struct Family {
  const char* scenario_id;
  mf::sim::ShockMode shock_mode;
};

constexpr Family kFamilies[] = {
    {"iid", mf::sim::ShockMode::kPerAttempt},
    {"correlated", mf::sim::ShockMode::kArrivalProcess},
    {"downtime", mf::sim::ShockMode::kPerAttempt},
};

struct Campaign {
  std::string family;
  mf::exp::Instance instance;
  mf::core::Mapping mapping;
  std::unique_ptr<mf::sim::Simulator> simulator;
  mf::sim::SimulationConfig config;
  double analytic_period = 0.0;
};

std::vector<Campaign> build_campaigns(std::uint64_t seed) {
  mf::exp::Scenario scenario;
  scenario.tasks = kTasks;
  scenario.machines = kMachines;
  scenario.types = kTypes;
  std::vector<Campaign> campaigns;
  std::uint64_t index = 0;
  for (const Family& family : kFamilies) {
    const auto generator = mf::exp::ScenarioRegistry::instance().resolve(family.scenario_id);
    for (std::size_t k = 0; k < kInstancesPerFamily; ++k, ++index) {
      Campaign campaign;
      campaign.family = family.scenario_id;
      campaign.instance =
          generator->generate(scenario, mf::support::mix_seed(kLineSeed, index));
      const mf::solve::SolveResult solved = mf::solve::run(*campaign.instance.effective, "H4w");
      if (!solved.mapping.has_value()) {
        throw std::runtime_error("H4w found no mapping for a sim_campaign instance");
      }
      campaign.mapping = *solved.mapping;
      campaign.analytic_period = campaign.instance.model->period(
          *campaign.instance.problem, *campaign.instance.effective, campaign.mapping);
      campaign.simulator =
          std::make_unique<mf::sim::Simulator>(*campaign.instance.problem, campaign.mapping);
      campaign.config.seed = mf::support::mix_seed(seed ^ 0x5151, index);
      campaign.config.target_outputs = kOutputs;
      campaign.config.warmup_outputs = kOutputs / 10;
      campaign.config.failure_model = campaign.instance.model.get();
      campaign.config.shock_mode = family.shock_mode;
      campaigns.push_back(std::move(campaign));
    }
  }
  return campaigns;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Bit-identity of two reports of the same campaign.
bool identical(const mf::sim::SimulationReport& a, const mf::sim::SimulationReport& b) {
  if (a.reached_target != b.reached_target || a.finished_products != b.finished_products ||
      !same_bits(a.end_time, b.end_time) || !same_bits(a.measured_period, b.measured_period) ||
      a.events_processed != b.events_processed || a.machine_failures != b.machine_failures ||
      a.machine_repairs != b.machine_repairs || a.shock_arrivals != b.shock_arrivals ||
      a.shock_losses != b.shock_losses || a.per_task.size() != b.per_task.size() ||
      a.machine_busy_time.size() != b.machine_busy_time.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    if (a.per_task[i].attempts != b.per_task[i].attempts ||
        a.per_task[i].successes != b.per_task[i].successes ||
        a.per_task[i].losses != b.per_task[i].losses) {
      return false;
    }
  }
  for (std::size_t u = 0; u < a.machine_busy_time.size(); ++u) {
    if (!same_bits(a.machine_busy_time[u], b.machine_busy_time[u])) return false;
  }
  return true;
}

}  // namespace

void run_sim_campaign(const Args& args, Tracer& tracer, Report& report) {
  const bool trace_requested = tracer.enabled();
  tracer.set_enabled(false);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  report.stamp.emplace_back("sim_threads", std::to_string(threads));

  // Set-up: pool start, instances and their H4w mappings. Repeated; the
  // last one runs.
  std::vector<double> setup_s;
  std::unique_ptr<mf::support::ThreadPool> pool;
  std::vector<Campaign> campaigns;
  for (double total_s = 0.0; setup_s.size() < kSetupRepeats || total_s < kMinSetupSeconds;) {
    pool.reset();
    const std::int64_t start = now_ns();
    pool = std::make_unique<mf::support::ThreadPool>(threads);
    campaigns = build_campaigns(args.seed);
    setup_s.push_back(ns_to_s(now_ns() - start));
    total_s += setup_s.back();
  }

  std::vector<mf::sim::SimulationReport> first;
  std::vector<double> rep_s;
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  std::vector<std::vector<double>> untraced_run_ms;  ///< per untraced repetition
  std::uint64_t mismatches = 0;
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> family_ns_events;
  std::uint64_t traced_campaigns = 0;
  std::uint64_t traced_allocs = 0;
  std::uint64_t rep_events = 0;
  std::uint64_t attempts = 0;
  std::uint64_t fails = 0;
  std::uint64_t repairs = 0;
  std::uint64_t shocks = 0;
  RepClock clock(args.seconds, trace_requested ? 2 : 1);
  while (clock.another(rep_s)) {
    const bool traced = trace_requested && rep_s.size() % 2 == 1;
    tracer.set_enabled(traced);
    const ScopedSpan rep_span(tracer, "bench.rep");
    std::vector<mf::sim::SimulationReport> results(campaigns.size());
    std::vector<std::int64_t> run_ns(campaigns.size());
    std::vector<std::uint64_t> run_allocs(campaigns.size());
    const std::int64_t rep_start = now_ns();
    mf::support::parallel_for(*pool, campaigns.size(), [&](std::size_t c) {
      const std::uint64_t allocs_before = thread_allocations();
      const std::int64_t start = now_ns();
      results[c] = campaigns[c].simulator->run(campaigns[c].config);
      const std::int64_t end = now_ns();
      run_allocs[c] = thread_allocations() - allocs_before;
      run_ns[c] = end - start;
      tracer.record("sim.run." + campaigns[c].family, start, end, rep_span.id());
    });
    const double seconds = ns_to_s(now_ns() - rep_start);
    std::uint64_t events = 0;
    if (!traced) untraced_run_ms.emplace_back();
    for (std::size_t c = 0; c < campaigns.size(); ++c) {
      const Campaign& campaign = campaigns[c];
      mf::sim::SimulationReport& result = results[c];
      events += result.events_processed;
      report.attempted += 1;
      if (!traced) untraced_run_ms.back().push_back(ns_to_ms(run_ns[c]));
      if (traced) {
        auto& [ns, family_events] = family_ns_events[campaign.family];
        ns += run_ns[c];
        family_events += result.events_processed;
        ++traced_campaigns;
        traced_allocs += run_allocs[c];
      }
      if (first.size() < campaigns.size()) {
        const double error = std::abs(result.measured_period - campaign.analytic_period) /
                             campaign.analytic_period;
        if (!result.reached_target || !(error <= kPeriodTolerance)) {
          report.failed += 1;
          report.fail_check("campaign " + std::to_string(c) + " (" + campaign.family +
                            "): measured period off the analytic one by " +
                            std::to_string(error));
        }
        for (const mf::sim::TaskCounters& task : result.per_task) attempts += task.attempts;
        fails += result.machine_failures;
        repairs += result.machine_repairs;
        shocks += result.shock_arrivals;
        first.push_back(std::move(result));
      } else if (!identical(result, first[c])) {
        ++mismatches;
        report.failed += 1;
      }
    }
    tracer.set_enabled(false);
    if (rep_s.empty()) rep_events = events;
    rep_s.push_back(seconds);
    (traced ? traced_rate : untraced_rate).push_back(static_cast<double>(events) / seconds);
  }
  if (mismatches > 0) {
    report.fail_check(std::to_string(mismatches) +
                      " repeated campaigns gave a report that differs from the first");
  }

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s", median(untraced_rate), "1/s");
    report.add("p50_ms", block_quantile(untraced_run_ms, 0.5), "ms");
    report.add("p99_ms", block_quantile(untraced_run_ms, 0.99), "ms");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    std::printf("campaign set: median %.6g s per repetition over %zu repetitions of %zu "
                "runs\n",
                median(rep_s), rep_s.size(), campaigns.size());
    return;
  }
  report.add("sim.events", static_cast<double>(rep_events), "count");
  report.add("sim.events.attempt", static_cast<double>(attempts), "count");
  report.add("sim.events.fail", static_cast<double>(fails), "count");
  report.add("sim.events.repair", static_cast<double>(repairs), "count");
  report.add("sim.events.shock", static_cast<double>(shocks), "count");
  for (const auto& [family, totals] : family_ns_events) {
    report.add("sim.ns_per_event." + family,
               totals.second == 0 ? 0.0
                                  : static_cast<double>(totals.first) /
                                        static_cast<double>(totals.second),
               "ns");
  }
  report.add("sim.allocs_per_campaign",
             traced_campaigns == 0 ? 0.0
                                   : static_cast<double>(traced_allocs) /
                                         static_cast<double>(traced_campaigns),
             "count");
  report.add("bench.trace_overhead_share", median(untraced_rate) / median(traced_rate) - 1.0,
             "ratio");
}

}  // namespace perfbench
