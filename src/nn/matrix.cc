#include "nn/matrix.h"

#include <atomic>
#include <cmath>

#include "common/profiler.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"

namespace lpce::nn {

namespace {

std::atomic<int> g_matmul_threads{0};

// Parallelize a product only when it is worth a dispatch: below this flop
// count the pool hand-off costs more than the arithmetic it saves. The
// per-node 1xD training/inference products stay sequential; batched training
// products and the bench workloads go wide.
constexpr size_t kParallelFlopCutoff = size_t{1} << 18;

// Runs fn(row_begin, row_end) over [0, rows), split across the global pool
// when the product is large enough. Each chunk owns a disjoint block of
// output rows and accumulates each output element in the same order as the
// sequential loop, so results are bit-identical at every thread count.
void ParallelRows(size_t rows, size_t flops,
                  const std::function<void(size_t, size_t)>& fn) {
  const int cap = g_matmul_threads.load(std::memory_order_relaxed);
  if (flops < kParallelFlopCutoff || rows < 2 || cap == 1) {
    fn(0, rows);
    return;
  }
  common::GlobalPool().ParallelFor(0, rows, /*grain=*/1, fn, cap);
}

}  // namespace

void SetMatMulThreads(int num_threads) {
  g_matmul_threads.store(num_threads < 0 ? 0 : num_threads,
                         std::memory_order_relaxed);
}

int MatMulThreads() { return g_matmul_threads.load(std::memory_order_relaxed); }

void Matrix::AddInPlace(const Matrix& other) {
  LPCE_CHECK(SameShape(other));
  kernels::AddInPlace(data(), other.data(), data_.size());
}

void Matrix::AddScaledInPlace(const Matrix& other, float scale) {
  LPCE_CHECK(SameShape(other));
  kernels::AddScaledInPlace(data(), other.data(), scale, data_.size());
}

Matrix Matrix::MatMul(const Matrix& other) const {
  LPCE_PROFILE_SCOPE("nn.matmul");
  LPCE_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_, 0.0f);
  // Each row block is an independent Gemm call over [r0, r1); the kernel
  // accumulates every output element in increasing k order, so the split is
  // invisible in the bits (see nn/kernels.h for the determinism contract).
  ParallelRows(rows_, rows_ * cols_ * other.cols_, [&](size_t r0, size_t r1) {
    kernels::Gemm(data() + r0 * cols_, r1 - r0, cols_, other.data(),
                  other.cols_, out.data() + r0 * other.cols_);
  });
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  // Computes this^T (cols_ x rows_) * other (rows_ x other.cols_). Each chunk
  // owns output rows [i0, i1) — a column block of `this` — and walks the full
  // k range in order, preserving the sequential accumulation order.
  LPCE_PROFILE_SCOPE("nn.tmatmul");
  LPCE_CHECK(rows_ == other.rows_);
  Matrix out(cols_, other.cols_, 0.0f);
  ParallelRows(cols_, rows_ * cols_ * other.cols_, [&](size_t i0, size_t i1) {
    for (size_t k = 0; k < rows_; ++k) {
      const float* a_row = data() + k * cols_;
      const float* b_row = other.data() + k * other.cols_;
      for (size_t i = i0; i < i1; ++i) {
        const float a = a_row[i];
        float* out_row = out.data() + i * other.cols_;
        for (size_t j = 0; j < other.cols_; ++j) out_row[j] += a * b_row[j];
      }
    }
  });
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  // Computes this (rows_ x cols_) * other^T (cols_ x other.rows_).
  LPCE_PROFILE_SCOPE("nn.matmul_t");
  LPCE_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_, 0.0f);
  ParallelRows(rows_, rows_ * cols_ * other.rows_, [&](size_t r0, size_t r1) {
    kernels::GemmNT(data() + r0 * cols_, r1 - r0, cols_, other.data(),
                    other.rows_, out.data() + r0 * other.rows_);
  });
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.at(j, i) = at(i, j);
  }
  return out;
}

float Matrix::SumAbs() const {
  float acc = 0.0f;
  for (float v : data_) acc += std::fabs(v);
  return acc;
}

float Matrix::SumSquares() const {
  float acc = 0.0f;
  for (float v : data_) acc += v * v;
  return acc;
}

void SigmoidInPlace(Matrix* m) { kernels::Sigmoid(m->data(), m->size()); }

void TanhInPlace(Matrix* m) { kernels::TanhInPlace(m->data(), m->size()); }

void ReluInPlace(Matrix* m) { kernels::Relu(m->data(), m->size()); }

}  // namespace lpce::nn
