// Thread-scaling study for the parallel substrate (common/thread_pool.h):
// the training matrix products at pool caps 1/2/4/8 — the pool's one user;
// the query executor is sequential per query. Prints wall times and speedups
// over the 1-thread run, and verifies that every thread count produces the
// same result as the sequential path (the substrate's determinism contract).
//
// Unlike the figure benches this one is self-contained — it builds its own
// matrices instead of GetWorld(), so it runs in seconds.
#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "nn/matrix.h"

namespace lpce {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRepeats = 5;

double RunMatMul(int threads) {
  static nn::Matrix a, b;
  if (a.empty()) {
    Rng rng(11);
    a = nn::Matrix(384, 384);
    b = nn::Matrix(384, 384);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      b.data()[i] = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    }
  }
  nn::SetMatMulThreads(threads);
  double checksum = 0.0;
  for (int r = 0; r < 8; ++r) {
    checksum += static_cast<double>(a.MatMul(b).SumAbs());
    checksum += static_cast<double>(a.TransposeMatMul(b).SumAbs());
    checksum += static_cast<double>(a.MatMulTranspose(b).SumAbs());
  }
  nn::SetMatMulThreads(0);
  return checksum;
}

}  // namespace
}  // namespace lpce

int main() {
  using lpce::common::SetGlobalPoolSize;
  SetGlobalPoolSize(8);  // enough workers for the largest cap below

  std::printf("%-12s %8s %12s %10s\n", "workload", "threads", "seconds",
              "speedup");
  bool deterministic = true;
  double base_seconds = 0.0;
  double base_checksum = 0.0;
  for (int threads : lpce::kThreadCounts) {
    double best = 1e100;
    double checksum = 0.0;
    for (int r = 0; r < lpce::kRepeats; ++r) {
      lpce::WallTimer timer;
      checksum = lpce::RunMatMul(threads);
      best = std::min(best, timer.ElapsedSeconds());
    }
    if (threads == 1) {
      base_seconds = best;
      base_checksum = checksum;
    } else if (checksum != base_checksum) {
      deterministic = false;
      std::printf("!! matmul: checksum mismatch at %d threads\n", threads);
    }
    std::printf("%-12s %8d %12.4f %9.2fx\n", "matmul", threads, best,
                base_seconds / best);
  }
  std::printf("determinism: %s\n", deterministic ? "ok" : "MISMATCH");
  return deterministic ? 0 : 1;
}
