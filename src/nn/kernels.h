// Raw-float kernels shared by every numeric path in the repo.
//
// The Matrix convenience methods (nn/matrix.cc), the layers' forward and
// backward (nn/layers.cc), the level-batched forward and backward passes
// (lpce/tree_model.cc), and the tests' autograd oracle (tests/testing/tape.h)
// all funnel through these single out-of-line definitions. That is a
// correctness contract, not a style choice: the build uses -ffast-math, so two
// textually identical loops compiled in different translation units (or
// inlined into different callers) may vectorize or contract into FMAs
// differently and produce different bits. One definition per operation means
// every path performs the exact same rounded operations, which is what lets
// the tests pin the production passes to the taped oracle bit-exactly.
//
// Determinism contract: Gemm accumulates each output element in strictly
// increasing k order, independent of blocking, unrolling, and the row range a
// caller parallelizes over — results are bit-identical at every thread count.
#ifndef LPCE_NN_KERNELS_H_
#define LPCE_NN_KERNELS_H_

#include <cstddef>

namespace lpce::nn::kernels {

/// out (m x n) = a (m x k) * b (k x n), row-major, overwriting out.
/// Dense branch-free i-k-j kernel: cache-blocked over k, 4-way unrolled over
/// k with a single accumulator chain per element (FMA-friendly without
/// changing the accumulation order), inner j loop vectorizable.
void Gemm(const float* a, size_t m, size_t k, const float* b, size_t n,
          float* out);

/// Reference variant of the pre-PR4 dense kernel: skips a == 0.0f rows of the
/// inner product. The branch defeats autovectorization on dense inputs
/// (bench_nn_primitives quantifies it), so no model path uses this; it exists
/// for the kernel equivalence tests and as the sparse baseline in the bench.
void GemmZeroSkip(const float* a, size_t m, size_t k, const float* b, size_t n,
                  float* out);

/// x[i][j] += bias[j] for every row of x (m x n).
void AddBiasRows(float* x, size_t rows, size_t cols, const float* bias);

// Element-wise kernels over n contiguous floats. Each performs exactly one
// rounded floating-point operation per element (or none, for Copy/Zero), so
// composing them reproduces the autograd ops' rounding sequence verbatim.
void Add(const float* a, const float* b, float* out, size_t n);
void AddInPlace(float* dst, const float* src, size_t n);
void AddScaledInPlace(float* dst, const float* src, float scale, size_t n);
void Mul(const float* a, const float* b, float* out, size_t n);
void MulInPlace(float* dst, const float* src, size_t n);
void ScaleInPlace(float* x, float s, size_t n);
void AddScalarInPlace(float* x, float s, size_t n);
/// out[i] = 1.0f - a[i]. Bit-identical to AddScalar(Scale(a, -1), 1): both
/// are a single rounding of the exact real 1 - a[i].
void OneMinus(const float* a, float* out, size_t n);
void Sigmoid(float* x, size_t n);
void TanhInPlace(float* x, size_t n);
void Tanh(const float* a, float* out, size_t n);
void Relu(float* x, size_t n);
void Copy(const float* src, float* dst, size_t n);
void Zero(float* x, size_t n);
/// Sum of n floats in one fixed (vectorized) reduction order — the Sum op.
float Sum(const float* x, size_t n);

// Backward kernels. The production backward passes and the tests' autograd
// oracle both call these, so a gradient computed either way goes through the
// same rounded operations. Each accumulates into dst, as reverse-mode
// gradient buffers do.

/// dst[i] += g[i] * b[i] — Mul's backward into one operand.
void MulAccumulate(float* dst, const float* g, const float* b, size_t n);
/// dst[i] += g[i] * y[i] * (1 - y[i]) — Sigmoid's backward from its output.
void SigmoidBackwardAccumulate(float* dst, const float* g, const float* y,
                               size_t n);
/// dst[i] += g[i] * (1 - y[i] * y[i]) — Tanh's backward from its output.
void TanhBackwardAccumulate(float* dst, const float* g, const float* y,
                            size_t n);
/// dst[i] += g[i] where x[i] > 0 — Relu's backward from its input.
void ReluBackwardAccumulate(float* dst, const float* g, const float* x,
                            size_t n);
/// dst[i] += g[i] where x[i] > 0, dst[i] -= g[i] where x[i] < 0 — Abs's
/// backward from its input (subgradient 0 at 0).
void AbsBackwardAccumulate(float* dst, const float* g, const float* x,
                           size_t n);

/// out (m x n) = a (m x k) * b^T, with b stored row-major as (n x k) — the
/// input gradient G W^T of a linear layer. Each output element is one dot
/// product over k in the kernel's fixed order, independent of m and of the
/// row range a caller parallelizes over.
void GemmNT(const float* a, size_t m, size_t k, const float* b, size_t n,
            float* out);

/// grad (k x n) += a_r^T g_r for r = rows[0], ..., rows[m-1] in that order,
/// where a has row stride k and g row stride n: every element adds one
/// rounded product per row, exactly as m single-row backward passes
/// accumulate a weight gradient (TransposeMatMul, then AddInPlace). The
/// product is never contracted into an FMA with the add. Rows whose a entry
/// is zero are skipped: adding a zero product leaves a gradient that started
/// at +0 unchanged.
void AccumulateOuterRows(const float* a, size_t k, const float* g, size_t n,
                         const int* rows, size_t m, float* grad);

}  // namespace lpce::nn::kernels

#endif  // LPCE_NN_KERNELS_H_
