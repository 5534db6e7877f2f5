#include "common/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/check.h"

namespace lpce::common {

namespace {

// Set while a pool worker runs a task; nested ParallelFor calls from inside a
// task fall back to inline execution instead of deadlocking on a full queue.
thread_local bool tls_in_worker = false;

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Requests far beyond any real core count (e.g. a typo'd LPCE_NUM_THREADS)
// would otherwise die in std::thread with "Resource temporarily unavailable".
constexpr int kMaxPoolSize = 256;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  size_ = num_threads > 0 ? num_threads : DefaultThreads();
  size_ = std::min(size_, kMaxPoolSize);
  workers_.reserve(static_cast<size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task();  // self-accounts: decrements its batch counter, notifies done_cv_
  }
}

std::vector<std::pair<size_t, size_t>> ThreadPool::Partition(size_t begin,
                                                             size_t end,
                                                             size_t grain,
                                                             int max_chunks) {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (begin >= end) return chunks;
  const size_t n = end - begin;
  const size_t g = std::max<size_t>(grain, 1);
  // Floor division: with more than one chunk, every chunk gets >= grain
  // elements (a single chunk may be smaller than the grain).
  size_t k = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(max_chunks, 1)), n / g));
  chunks.reserve(k);
  const size_t base = n / k;
  const size_t extra = n % k;  // first `extra` chunks take one more element
  size_t pos = begin;
  for (size_t i = 0; i < k; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    chunks.emplace_back(pos, pos + len);
    pos += len;
  }
  return chunks;
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn,
                             int max_chunks) {
  if (begin >= end) return;
  int cap = size_;
  if (max_chunks > 0) cap = std::min(cap, max_chunks);
  if (tls_in_worker) cap = 1;  // nested: run inline, never re-enter the queue
  const auto chunks = Partition(begin, end, grain, cap);
  if (chunks.size() == 1) {
    fn(begin, end);
    return;
  }
  // Completion is tracked per call (not pool-wide): a nested ParallelFor
  // issued from a stolen task must not wait on its *enclosing* batch, which
  // cannot finish until the stolen task returns. Queued tasks self-account —
  // they decrement their own batch counter and ping done_cv_ — so helpers can
  // safely run tasks from any batch.
  size_t remaining = chunks.size() - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 1; i < chunks.size(); ++i) {
      const auto [b, e] = chunks[i];
      queue_.emplace_back([this, &fn, &remaining, b, e] {
        fn(b, e);
        std::lock_guard<std::mutex> task_lock(mu_);
        --remaining;
        done_cv_.notify_all();
      });
    }
  }
  work_cv_.notify_all();
  fn(chunks[0].first, chunks[0].second);
  // Help drain the queue while waiting for this call's chunks to finish. A
  // stolen task may belong to a different (nested) batch; it accounts for
  // itself either way.
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock,
                    [&] { return remaining == 0 || !queue_.empty(); });
      if (remaining == 0) return;
      if (!queue_.empty()) {
        task = std::move(queue_.back());
        queue_.pop_back();
      }
    }
    if (task) task();
  }
}

namespace {

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

int EnvThreads() {
  const char* value = std::getenv("LPCE_NUM_THREADS");
  if (value == nullptr) return 0;
  const std::optional<int> parsed = ParseThreadCount(value);
  const std::string msg = std::string("LPCE_NUM_THREADS=\"") + value +
                          "\" is not a whole positive number";
  LPCE_CHECK_MSG(parsed.has_value(), msg.c_str());
  return *parsed;
}

}  // namespace

std::optional<int> ParseThreadCount(std::string_view text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value <= 0) return std::nullopt;
  return value;
}

ThreadPool& GlobalPool() {
  auto& slot = GlobalPoolSlot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(EnvThreads());
  return *slot;
}

void SetGlobalPoolSize(int num_threads) {
  auto& slot = GlobalPoolSlot();
  slot = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace lpce::common
