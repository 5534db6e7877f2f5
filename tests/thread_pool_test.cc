// ThreadPool unit tests: static-partition invariants, ParallelFor
// correctness across sizes/grains/caps, nested calls, and a write-heavy
// stress loop meant to run under ThreadSanitizer (the CI tsan job).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace lpce::common {
namespace {

TEST(ThreadPoolPartition, CoversRangeContiguously) {
  for (size_t n : {0ul, 1ul, 7ul, 100ul, 4096ul, 99999ul}) {
    for (size_t grain : {1ul, 16ul, 1000ul}) {
      for (int chunks : {1, 3, 8}) {
        const auto parts = ThreadPool::Partition(10, 10 + n, grain, chunks);
        if (n == 0) {
          EXPECT_TRUE(parts.empty());
          continue;
        }
        ASSERT_FALSE(parts.empty());
        EXPECT_LE(parts.size(), static_cast<size_t>(chunks));
        EXPECT_EQ(parts.front().first, 10u);
        EXPECT_EQ(parts.back().second, 10 + n);
        for (size_t i = 0; i < parts.size(); ++i) {
          EXPECT_LT(parts[i].first, parts[i].second);
          if (i > 0) {
            EXPECT_EQ(parts[i].first, parts[i - 1].second);
          }
          // Every chunk but possibly the only one honors the grain.
          if (parts.size() > 1) {
            EXPECT_GE(parts[i].second - parts[i].first, grain);
          }
        }
      }
    }
  }
}

TEST(ThreadPoolPartition, IsDeterministic) {
  const auto a = ThreadPool::Partition(0, 12345, 64, 7);
  const auto b = ThreadPool::Partition(0, 12345, 64, 7);
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  for (size_t n : {1ul, 5ul, 1000ul, 40000ul}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(0, n, 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " n=" << n;
    }
  }
}

TEST(ThreadPoolTest, SizeOneRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 10000, 1, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, MaxChunksCapsFanOut) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100000, 1, [&](size_t, size_t) { calls.fetch_add(1); },
                   /*max_chunks=*/3);
  EXPECT_LE(calls.load(), 3);
  EXPECT_GE(calls.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  pool.ParallelFor(0, 64, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelFor(0, 64, 1, [&](size_t b2, size_t e2) {
        for (size_t j = b2; j < e2; ++j) hits[i * 64 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  const size_t n = 100000;
  std::vector<int64_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  // Per-chunk partials combined in chunk order — the deterministic-reduction
  // pattern the executor and matrix kernels rely on.
  const auto chunks = ThreadPool::Partition(0, n, 1024, pool.size());
  std::vector<int64_t> partial(chunks.size(), 0);
  pool.ParallelFor(0, chunks.size(), 1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
        partial[c] += values[i];
      }
    }
  });
  const int64_t total = std::accumulate(partial.begin(), partial.end(), int64_t{0});
  EXPECT_EQ(total, static_cast<int64_t>(n) * (n + 1) / 2);
}

// Repeated dispatch with disjoint writes: the loop TSan watches for races in
// the queue/latch handshake.
TEST(ThreadPoolTest, RepeatedDispatchStress) {
  ThreadPool pool(4);
  std::vector<int> data(10000, 0);
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(0, data.size(), 64, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) ++data[i];
    });
  }
  for (int v : data) ASSERT_EQ(v, 200);
}

TEST(ThreadPoolTest, GlobalPoolResize) {
  SetGlobalPoolSize(3);
  EXPECT_EQ(GlobalPool().size(), 3);
  SetGlobalPoolSize(1);
  EXPECT_EQ(GlobalPool().size(), 1);
  SetGlobalPoolSize(0);  // hardware default
  EXPECT_GE(GlobalPool().size(), 1);
}

TEST(ThreadPoolTest, AbsurdSizeIsClampedNotFatal) {
  // A typo'd LPCE_NUM_THREADS=1000000 must not abort in std::thread
  // ("Resource temporarily unavailable"); the pool clamps to a sane cap.
  ThreadPool pool(1000000);
  EXPECT_LE(pool.size(), 256);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 1000, 1, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ParseThreadCountAcceptsOnlyWholePositiveNumbers) {
  EXPECT_EQ(ParseThreadCount("8"), 8);
  EXPECT_EQ(ParseThreadCount("1"), 1);
  EXPECT_EQ(ParseThreadCount("007"), 7);
  EXPECT_EQ(ParseThreadCount("2147483647"), 2147483647);
  for (const char* bad : {"", "4x", "abc", "0", "00", "-2", "+8", " 8", "8 ",
                          "1.5", "2147483648", "99999999999999999999"}) {
    EXPECT_EQ(ParseThreadCount(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(ThreadPoolTest, MalformedEnvThreadCountIsFatal) {
  // The child re-runs only this test, so its global pool is first built
  // from the environment set here.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"4x", "abc", "0", "-2"}) {
    EXPECT_DEATH(
        {
          setenv("LPCE_NUM_THREADS", bad, 1);
          GlobalPool();
        },
        std::string("LPCE_NUM_THREADS=\"") + bad + "\"")
        << bad;
  }
}

TEST(ThreadPoolTest, MalformedEnvThreadCountFailsAtStartUp) {
  // The knob is checked before main, not at the pool's first use: this
  // binary, re-run with a bad value only to list its tests (which builds no
  // pool), still exits non-zero naming the value.
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string command =
      "LPCE_NUM_THREADS=4x '" + self + "' --gtest_list_tests 2>&1";
  FILE* child = popen(command.c_str(), "r");
  ASSERT_NE(child, nullptr);
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), child) != nullptr) output += buf;
  const int status = pclose(child);
  EXPECT_NE(status, 0) << output;
  EXPECT_NE(output.find("LPCE_NUM_THREADS=\"4x\""), std::string::npos)
      << output;
}

}  // namespace
}  // namespace lpce::common
