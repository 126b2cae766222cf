#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.h"

namespace yver::util {

size_t ResolveNumThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  YVER_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    YVER_CHECK_MSG(!shutting_down_, "Submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForChunked(n, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForDynamic(size_t n,
                                    const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  std::atomic<size_t> next{0};
  size_t workers = std::min(n, num_threads());
  for (size_t w = 0; w < workers; ++w) {
    Submit([n, &next, &fn] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  Wait();
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  ParallelForChunkedIndexed(
      n, [&fn](size_t /*chunk*/, size_t begin, size_t end) {
        fn(begin, end);
      });
}

void ThreadPool::ParallelForChunkedIndexed(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t target = std::min(n, num_threads() * 4);
  size_t chunk = (n + target - 1) / target;
  size_t index = 0;
  for (size_t begin = 0; begin < n; begin += chunk, ++index) {
    size_t end = std::min(n, begin + chunk);
    Submit([index, begin, end, &fn] { fn(index, begin, end); });
  }
  Wait();
}

size_t ThreadPool::NumChunks(size_t n) const {
  if (n == 0) return 0;
  size_t target = std::min(n, num_threads() * 4);
  size_t chunk = (n + target - 1) / target;
  return (n + chunk - 1) / chunk;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      // A throwing task must not escape the worker (std::terminate); park
      // the first exception for the next Wait() to rethrow.
      thrown = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (thrown != nullptr && first_exception_ == nullptr) {
        first_exception_ = thrown;
      }
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace yver::util
