// Fixed-size worker pool with a deterministic ParallelFor. The partitioning
// is static: chunk boundaries depend only on (begin, end, grain, max_chunks),
// never on scheduling, so callers that write disjoint per-chunk outputs get
// bit-identical results at every pool size. A pool of size 1 spawns no
// workers and runs everything inline on the calling thread.
//
// Its one user is the training matrix products (nn/matrix.h); the query
// executor and inference are sequential per query. The process-wide pool
// (GlobalPool) sizes itself from LPCE_NUM_THREADS (default:
// hardware_concurrency); see DESIGN.md "Threading model".
#ifndef LPCE_COMMON_THREAD_POOL_H_
#define LPCE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace lpce::common {

class ThreadPool {
 public:
  /// A pool of logical size `num_threads` (0 = hardware_concurrency). The
  /// calling thread always participates in ParallelFor, so only
  /// `num_threads - 1` workers are spawned; size 1 spawns none.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Splits [begin, end) into at most min(size(), max_chunks) contiguous
  /// chunks of at least `grain` elements each and runs fn(chunk_begin,
  /// chunk_end) on every chunk, blocking until all complete. max_chunks <= 0
  /// means "no extra cap". With a single chunk (small range, grain, size 1,
  /// or max_chunks 1) fn runs inline on the calling thread. Nested calls from
  /// inside a worker also run inline — the pool never deadlocks on itself.
  /// fn must not throw.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn,
                   int max_chunks = 0);

  /// The static partition ParallelFor uses: up to `max_chunks` near-equal
  /// contiguous chunks of at least `grain` elements (last chunk takes the
  /// remainder). Exposed so callers can pre-size per-chunk buffers.
  static std::vector<std::pair<size_t, size_t>> Partition(size_t begin,
                                                          size_t end,
                                                          size_t grain,
                                                          int max_chunks);

 private:
  void WorkerLoop();

  int size_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::function<void()>> queue_;
  size_t pending_ = 0;  // queued + running tasks
  bool shutdown_ = false;
};

/// Parses a thread count the way LPCE_NUM_THREADS is read: a whole positive
/// decimal number that fits an int, digits only (no sign, space or suffix).
/// Anything else yields nullopt.
std::optional<int> ParseThreadCount(std::string_view text);

/// Process-wide pool, lazily constructed at LPCE_NUM_THREADS (default:
/// hardware_concurrency) threads. A set LPCE_NUM_THREADS that
/// ParseThreadCount rejects is a fatal error naming the value.
ThreadPool& GlobalPool();

/// Rebuilds the global pool at `num_threads` (0 = hardware_concurrency).
/// Must not race with in-flight ParallelFor calls; intended for start-up
/// configuration (bench_world) and tests.
void SetGlobalPoolSize(int num_threads);

}  // namespace lpce::common

#endif  // LPCE_COMMON_THREAD_POOL_H_
