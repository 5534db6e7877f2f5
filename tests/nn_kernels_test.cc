// Kernel unit tests (PR 4): the blocked branch-free Gemm against a naive
// triple loop on irregular shapes, the zero-skip reference variant, the
// row-independence property the batched inference path relies on, and the
// bit-exactness contracts of the elementwise kernels.
#include "nn/kernels.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/matrix.h"

namespace lpce::nn::kernels {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng, double lo = -2.0,
                             double hi = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble(lo, hi));
  return v;
}

/// Reference product with double accumulation: the float kernels must agree
/// to within float rounding noise on every shape.
std::vector<float> NaiveGemm(const std::vector<float>& a, size_t m, size_t k,
                             const std::vector<float>& b, size_t n) {
  std::vector<float> out(m * n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

struct Shape {
  size_t m, k, n;
};

// Irregular shapes: unit dims, odd primes, exact multiples of the 4-way
// unroll, one-short/one-past the unroll, and k spanning the 256 cache block.
const Shape kShapes[] = {{1, 1, 1},  {1, 7, 1},   {3, 5, 7},    {4, 16, 12},
                         {5, 3, 1},  {2, 17, 33}, {13, 64, 9},  {1, 255, 4},
                         {6, 256, 3}, {2, 257, 5}, {3, 300, 11}, {31, 31, 31}};

TEST(GemmTest, MatchesNaiveTripleLoopOnIrregularShapes) {
  Rng rng(42);
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, &rng);
    const auto b = RandomVec(s.k * s.n, &rng);
    const auto want = NaiveGemm(a, s.m, s.k, b, s.n);
    std::vector<float> got(s.m * s.n, -1.0f);
    Gemm(a.data(), s.m, s.k, b.data(), s.n, got.data());
    for (size_t i = 0; i < got.size(); ++i) {
      // Double-accumulated reference vs float kernel: allow float rounding
      // noise proportional to the reduction length.
      const float tol =
          1e-5f * static_cast<float>(s.k) * std::max(1.0f, std::fabs(want[i]));
      EXPECT_NEAR(got[i], want[i], tol)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " idx=" << i;
    }
  }
}

TEST(GemmTest, ZeroSkipVariantAgreesOnDenseAndSparseInputs) {
  Rng rng(7);
  for (const Shape& s : kShapes) {
    for (double density : {1.0, 0.1}) {
      auto a = RandomVec(s.m * s.k, &rng);
      for (auto& x : a) {
        if (rng.UniformDouble() > density) x = 0.0f;
      }
      const auto b = RandomVec(s.k * s.n, &rng);
      std::vector<float> dense(s.m * s.n), skip(s.m * s.n);
      Gemm(a.data(), s.m, s.k, b.data(), s.n, dense.data());
      GemmZeroSkip(a.data(), s.m, s.k, b.data(), s.n, skip.data());
      // Bitwise: a skipped zero term contributes fma(0, b, acc) == acc for
      // finite b, and acc can never be -0 mid-reduction, so dropping the
      // zero terms of the ascending-k chain leaves every element's bits
      // unchanged. The batched embed layer relies on this to run one-hot
      // feature rows through the zero-skip variant.
      EXPECT_EQ(std::memcmp(dense.data(), skip.data(),
                            dense.size() * sizeof(float)),
                0)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " density=" << density;
    }
  }
}

TEST(GemmTest, RowBlocksAreBitIdenticalToFullProduct) {
  // The parallel MatMul and the level-batched inference both partition Gemm
  // by rows; every partition must reproduce the full product bit-for-bit.
  Rng rng(11);
  const size_t m = 9, k = 300, n = 13;
  const auto a = RandomVec(m * k, &rng);
  const auto b = RandomVec(k * n, &rng);
  std::vector<float> full(m * n);
  Gemm(a.data(), m, k, b.data(), n, full.data());
  for (size_t rows_per_call : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<float> pieced(m * n, 0.0f);
    for (size_t r0 = 0; r0 < m; r0 += rows_per_call) {
      const size_t rows = std::min(rows_per_call, m - r0);
      Gemm(a.data() + r0 * k, rows, k, b.data(), n, pieced.data() + r0 * n);
    }
    EXPECT_EQ(std::memcmp(full.data(), pieced.data(), m * n * sizeof(float)), 0)
        << "rows_per_call=" << rows_per_call;
  }
}

TEST(BackwardTest, GemmNTRowsMatchSingleRowMatMulTranspose) {
  // The level-batched trainer runs G W^T over all rows of a batch; each row
  // must carry the bits of the tape's one-row MatMulTranspose.
  Rng rng(13);
  const size_t m = 11, k = 37, n = 9;
  const auto g = RandomVec(m * k, &rng);
  const auto w = RandomVec(n * k, &rng);
  std::vector<float> batched(m * n);
  GemmNT(g.data(), m, k, w.data(), n, batched.data());
  const Matrix w_mat(n, k, w);
  for (size_t r = 0; r < m; ++r) {
    const Matrix row(1, k, std::vector<float>(g.begin() + r * k,
                                              g.begin() + (r + 1) * k));
    const Matrix taped = row.MatMulTranspose(w_mat);
    EXPECT_EQ(std::memcmp(taped.data(), batched.data() + r * n,
                          n * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(BackwardTest, OuterRowsMatchSingleRowGradientAdds) {
  // grad += a_r^T g_r in a given row order must equal the tape's per-row
  // TransposeMatMul + AddInPlace bit for bit: one rounded product, then the
  // add (no FMA), and zero a entries skipped.
  Rng rng(17);
  const size_t m = 12, k = 19, n = 33;
  auto a = RandomVec(m * k, &rng);
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  const auto g = RandomVec(m * n, &rng, -1e-2, 1e-2);
  const std::vector<int> order = {5, 0, 11, 3, 3, 7, 1, 10, 2, 9, 4, 8, 6};
  std::vector<float> grad(k * n, 0.0f);
  AccumulateOuterRows(a.data(), k, g.data(), n, order.data(), order.size(),
                      grad.data());
  Matrix taped(k, n, 0.0f);
  for (const int r : order) {
    const size_t row = static_cast<size_t>(r);
    const Matrix a_row(1, k, std::vector<float>(a.begin() + row * k,
                                                a.begin() + (row + 1) * k));
    const Matrix g_row(1, n, std::vector<float>(g.begin() + row * n,
                                                g.begin() + (row + 1) * n));
    taped.AddInPlace(a_row.TransposeMatMul(g_row));
  }
  EXPECT_EQ(std::memcmp(taped.data(), grad.data(), k * n * sizeof(float)), 0);
}

TEST(ElementwiseTest, OneMinusMatchesScaleThenAddScalarBitExactly) {
  // The taped OneMinus is AddScalar(Scale(f, -1), 1); the fused kernel must
  // produce the same bits (both are one rounding of the exact 1 - f).
  Rng rng(3);
  const auto f = RandomVec(1000, &rng, -10.0, 10.0);
  std::vector<float> fused(f.size());
  OneMinus(f.data(), fused.data(), f.size());
  std::vector<float> composed = f;
  ScaleInPlace(composed.data(), -1.0f, composed.size());
  AddScalarInPlace(composed.data(), 1.0f, composed.size());
  EXPECT_EQ(
      std::memcmp(fused.data(), composed.data(), f.size() * sizeof(float)), 0);
}

TEST(ElementwiseTest, AddVariantsAreBitIdentical) {
  Rng rng(5);
  const auto a = RandomVec(777, &rng);
  const auto b = RandomVec(777, &rng);
  std::vector<float> out(a.size());
  Add(a.data(), b.data(), out.data(), a.size());
  std::vector<float> in_place = a;
  AddInPlace(in_place.data(), b.data(), a.size());
  EXPECT_EQ(std::memcmp(out.data(), in_place.data(), a.size() * sizeof(float)),
            0);
  // AddScaledInPlace(-1) is the Sub kernel: a + (-b) == a - b bitwise.
  std::vector<float> sub = a;
  AddScaledInPlace(sub.data(), b.data(), -1.0f, a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sub[i], a[i] - b[i]);
  }
}

TEST(ElementwiseTest, ActivationsMatchScalarDefinitions) {
  Rng rng(9);
  const auto x = RandomVec(257, &rng, -6.0, 6.0);
  std::vector<float> sig = x, tanh_out(x.size()), relu = x;
  Sigmoid(sig.data(), sig.size());
  Tanh(x.data(), tanh_out.data(), x.size());
  Relu(relu.data(), relu.size());
  std::vector<float> tanh_in_place = x;
  TanhInPlace(tanh_in_place.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(sig[i], 1.0f / (1.0f + std::exp(-x[i])), 1e-6f);
    EXPECT_NEAR(tanh_out[i], std::tanh(x[i]), 1e-6f);
    EXPECT_EQ(tanh_out[i], tanh_in_place[i]);  // same kernel math, same bits
    EXPECT_EQ(relu[i], x[i] > 0.0f ? x[i] : 0.0f);
  }
}

TEST(ElementwiseTest, MulBiasCopyZero) {
  Rng rng(13);
  const auto a = RandomVec(96, &rng);
  const auto b = RandomVec(96, &rng);
  std::vector<float> out(a.size());
  Mul(a.data(), b.data(), out.data(), a.size());
  std::vector<float> in_place = a;
  MulInPlace(in_place.data(), b.data(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], a[i] * b[i]);
    EXPECT_EQ(in_place[i], out[i]);
  }
  const size_t rows = 8, cols = 12;
  const auto bias = RandomVec(cols, &rng);
  std::vector<float> m = RandomVec(rows * cols, &rng);
  const std::vector<float> before = m;
  AddBiasRows(m.data(), rows, cols, bias.data());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(m[r * cols + c], before[r * cols + c] + bias[c]);
    }
  }
  std::vector<float> dst(64, -1.0f);
  Copy(a.data(), dst.data(), 64);
  EXPECT_EQ(std::memcmp(dst.data(), a.data(), 64 * sizeof(float)), 0);
  Zero(dst.data(), 64);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(dst[i], 0.0f);
}

TEST(InferArenaTest, PointersStayValidAndResetCoalesces) {
  InferArena arena;
  // First pass: force several block spills.
  float* first = arena.Alloc(100);
  for (size_t i = 0; i < 100; ++i) first[i] = static_cast<float>(i);
  std::vector<float*> ptrs;
  for (int i = 0; i < 20; ++i) ptrs.push_back(arena.Alloc(1 << 14));
  // Spilling must not move earlier allocations.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(first[i], static_cast<float>(i));
  }
  const size_t after_first_pass = arena.heap_allocations();
  EXPECT_GT(after_first_pass, 0u);
  const size_t high_water = arena.used();

  // Reset coalesces to the high-water mark: repeat passes of the same size
  // are allocation-free.
  arena.Reset();
  EXPECT_GE(arena.capacity(), high_water);
  const size_t after_reset = arena.heap_allocations();
  for (int pass = 0; pass < 5; ++pass) {
    arena.Alloc(100);
    for (int i = 0; i < 20; ++i) arena.Alloc(1 << 14);
    arena.Reset();
  }
  EXPECT_EQ(arena.heap_allocations(), after_reset);
}

TEST(InferArenaTest, AllocZeroedAndAlignment) {
  InferArena arena;
  for (size_t n : {1, 3, 64, 1000}) {
    float* p = arena.AllocZeroed(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], 0.0f);
  }
}

}  // namespace
}  // namespace lpce::nn::kernels
