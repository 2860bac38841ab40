#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

// --- Allocation counting ----------------------------------------------------
// The replacement allocation functions count per thread, so counting costs
// no shared cache line on the multi-threaded workloads; the simulator runs
// on the calling thread, where the count is read around each campaign.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

std::uint64_t thread_allocations() noexcept { return t_allocations; }

void Tracer::record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent, std::uint64_t request) {
  if (!enabled()) return;
  store({std::move(name), start_ns, end_ns, reserve_id(), parent, request});
}

void Tracer::store(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  std::ostringstream out;
  for (const Span& span : spans()) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request << "}\n";
  }
  write_file(path, out.str());
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
                       std::uint64_t request)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      request_(request),
      id_(tracer.enabled() ? tracer.reserve_id() : 0),
      start_ns_(now_ns()) {}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) tracer_.store({std::move(name_), start_ns_, now_ns(), id_, parent_, request_});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double block_quantile(const std::vector<std::vector<double>>& per_rep, double q) {
  const std::size_t blocks = std::min(kQuantileBlocks, per_rep.size());
  std::vector<double> estimates;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> samples;
    for (std::size_t r = b * per_rep.size() / blocks; r < (b + 1) * per_rep.size() / blocks;
         ++r) {
      samples.insert(samples.end(), per_rep[r].begin(), per_rep[r].end());
    }
    estimates.push_back(quantile(std::move(samples), q));
  }
  return median(std::move(estimates));
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool RepClock::another(const std::vector<double>& rep_seconds) const {
  if (rep_seconds.size() < min_reps_) return true;
  const std::int64_t elapsed = now_ns() - start_ns_;
  const auto predicted = static_cast<std::int64_t>(median(rep_seconds) * 1e9);
  return elapsed + predicted <= budget_ns_;
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) std::filesystem::create_directories(target.parent_path());
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  text = buffer.str();
  return true;
}

}  // namespace perfbench
