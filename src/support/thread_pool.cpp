#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/check.hpp"

namespace mf::support {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("MF_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  MF_REQUIRE(threads > 0, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(UniqueFunction task) {
  // Reject emptiness here, on the caller's thread — invoking an empty
  // UniqueFunction on a worker would be a null dereference.
  MF_REQUIRE(static_cast<bool>(task), "post needs a non-empty task");
  {
    std::lock_guard lock(mutex_);
    MF_CHECK(!stopping_, "post on a stopping pool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::future<void> ThreadPool::submit(UniqueFunction task) {
  MF_REQUIRE(static_cast<bool>(task), "submit needs a non-empty task");
  // packaged_task supplies the exception-capturing future; UniqueFunction
  // carries it through the queue (both are move-only callables).
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  post(std::move(packaged));
  return future;
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::in_flight() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    UniqueFunction task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();  // submit() tasks capture exceptions in their future; post()
             // tasks must not throw (an escape here terminates)
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = pool.size();
  if (workers == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Contiguous chunks, a few per worker, to amortise queue overhead while
  // still balancing uneven per-index cost (e.g. exact solves of varying size).
  const std::size_t chunks = std::min(count, workers * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    if (begin >= count) break;
    const std::size_t end = std::min(begin + chunk_size, count);
    futures.push_back(pool.submit([begin, end, &body] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  ThreadPool pool;
  parallel_for(pool, count, body);
}

}  // namespace mf::support
