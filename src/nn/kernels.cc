#include "nn/kernels.h"

#include <cmath>
#include <cstring>

namespace lpce::nn::kernels {

namespace {

// Vectorized libm (libmvec) and scalar libm may return different bits for the
// same input, and -ffast-math lowers a vectorized division differently from a
// scalar one. A plain loop over n elements therefore computes an element's
// bits as a function of its *position* (vector body vs scalar tail, alignment
// peeling), which would make a row inside a level-batched [N x d] product
// differ from the same row evaluated alone. Routing every element through
// these fixed-width noinline helpers — including the tail, via a padded stack
// buffer — makes the transcendental kernels value-deterministic: bits depend
// only on the input value, never on buffer length, pointer alignment, or
// batch row.
constexpr size_t kLanes = 8;

__attribute__((noinline)) void SigmoidLanes(float* x) {
  for (size_t i = 0; i < kLanes; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

__attribute__((noinline)) void TanhLanes(float* x) {
  for (size_t i = 0; i < kLanes; ++i) x[i] = std::tanh(x[i]);
}

template <void (*Lanes)(float*)>
void ApplyLanewise(float* x, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Lanes(x + i);
  if (i < n) {
    float tail[kLanes] = {0.0f};
    std::memcpy(tail, x + i, (n - i) * sizeof(float));
    Lanes(tail);
    std::memcpy(x + i, tail, (n - i) * sizeof(float));
  }
}

}  // namespace

namespace {

// Output j-tile held in registers across the whole k reduction. kJTile floats
// = 4 vector registers at AVX2 width; the fixed-size accumulator array lets
// the compiler keep the tile register-resident, so each output element is
// read and written exactly once instead of once per k-group. Each element
// still accumulates its k terms in strictly increasing order with one
// fma per term — bit-identical to a rolled k loop.
constexpr size_t kJTile = 32;

// The tile width is a template parameter on the hot (full-tile) path: with a
// compile-time trip count the accumulator array is fully unrolled into vector
// registers, where a runtime `width` bound forces the compiler to keep it on
// the stack and re-load/store every element each k iteration (~3x slower).
// The runtime-width instantiation handles the n % kJTile remainder columns.
// Both compute the identical ascending-k fma chain per element.
template <size_t W>
void GemmRowTileFixed(const float* a_row, size_t k, const float* b, size_t n,
                      size_t j0, float* out_row) {
  float acc[W] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float av = a_row[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < W; ++j) acc[j] += av * b_row[j];
  }
  std::memcpy(out_row + j0, acc, W * sizeof(float));
}

void GemmRowTile(const float* a_row, size_t k, const float* b, size_t n,
                 size_t j0, size_t width, float* out_row) {
  float acc[kJTile] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float av = a_row[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < width; ++j) acc[j] += av * b_row[j];
  }
  std::memcpy(out_row + j0, acc, width * sizeof(float));
}

// Two rows per pass, sharing each streamed b row. The per-row accumulation is
// the same fma chain as GemmRowTile, so pairing is invisible in the bits —
// it only halves b traffic for multi-row (batched / training) products.
template <size_t W>
void GemmRowPairTileFixed(const float* a_row0, const float* a_row1, size_t k,
                          const float* b, size_t n, size_t j0, float* out_row0,
                          float* out_row1) {
  float acc0[W] = {0.0f};
  float acc1[W] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float a0 = a_row0[kk];
    const float a1 = a_row1[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < W; ++j) {
      acc0[j] += a0 * b_row[j];
      acc1[j] += a1 * b_row[j];
    }
  }
  std::memcpy(out_row0 + j0, acc0, W * sizeof(float));
  std::memcpy(out_row1 + j0, acc1, W * sizeof(float));
}

void GemmRowPairTile(const float* a_row0, const float* a_row1, size_t k,
                     const float* b, size_t n, size_t j0, size_t width,
                     float* out_row0, float* out_row1) {
  float acc0[kJTile] = {0.0f};
  float acc1[kJTile] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float a0 = a_row0[kk];
    const float a1 = a_row1[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < width; ++j) {
      acc0[j] += a0 * b_row[j];
      acc1[j] += a1 * b_row[j];
    }
  }
  std::memcpy(out_row0 + j0, acc0, width * sizeof(float));
  std::memcpy(out_row1 + j0, acc1, width * sizeof(float));
}

#if defined(__AVX2__)
// Four rows per streamed b tile. The multi-row Gemm is bandwidth-bound on the
// b stream (each weight matrix exceeds L1), so sharing each b row across four
// output rows halves b traffic vs the pair kernel. Four rows force a narrower
// j tile (4 rows x 16 floats = 8 vector registers at AVX2 width; a 32-wide
// tile would need all 16 and spill), so this kernel is compiled only where
// AVX2 guarantees 16 wide registers. Row grouping and tile width leave every
// element's ascending-k fma chain untouched — bit-identical to the pair/
// single-row kernels (pinned by GemmTest.RowBlocksAreBitIdenticalToFullProduct).
constexpr size_t kJTileQuad = 16;

template <size_t W>
void GemmRowQuadTileFixed(const float* a0, const float* a1, const float* a2,
                          const float* a3, size_t k, const float* b, size_t n,
                          size_t j0, float* o0, float* o1, float* o2,
                          float* o3) {
  float acc0[W] = {0.0f};
  float acc1[W] = {0.0f};
  float acc2[W] = {0.0f};
  float acc3[W] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float v0 = a0[kk];
    const float v1 = a1[kk];
    const float v2 = a2[kk];
    const float v3 = a3[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < W; ++j) {
      acc0[j] += v0 * b_row[j];
      acc1[j] += v1 * b_row[j];
      acc2[j] += v2 * b_row[j];
      acc3[j] += v3 * b_row[j];
    }
  }
  std::memcpy(o0 + j0, acc0, W * sizeof(float));
  std::memcpy(o1 + j0, acc1, W * sizeof(float));
  std::memcpy(o2 + j0, acc2, W * sizeof(float));
  std::memcpy(o3 + j0, acc3, W * sizeof(float));
}

void GemmRowQuadTile(const float* a0, const float* a1, const float* a2,
                     const float* a3, size_t k, const float* b, size_t n,
                     size_t j0, size_t width, float* o0, float* o1, float* o2,
                     float* o3) {
  float acc0[kJTileQuad] = {0.0f};
  float acc1[kJTileQuad] = {0.0f};
  float acc2[kJTileQuad] = {0.0f};
  float acc3[kJTileQuad] = {0.0f};
  for (size_t kk = 0; kk < k; ++kk) {
    const float v0 = a0[kk];
    const float v1 = a1[kk];
    const float v2 = a2[kk];
    const float v3 = a3[kk];
    const float* b_row = b + kk * n + j0;
    for (size_t j = 0; j < width; ++j) {
      acc0[j] += v0 * b_row[j];
      acc1[j] += v1 * b_row[j];
      acc2[j] += v2 * b_row[j];
      acc3[j] += v3 * b_row[j];
    }
  }
  std::memcpy(o0 + j0, acc0, width * sizeof(float));
  std::memcpy(o1 + j0, acc1, width * sizeof(float));
  std::memcpy(o2 + j0, acc2, width * sizeof(float));
  std::memcpy(o3 + j0, acc3, width * sizeof(float));
}
#endif  // __AVX2__

}  // namespace

void Gemm(const float* a, size_t m, size_t k, const float* b, size_t n,
          float* out) {
  size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* o0 = out + i * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    size_t j0 = 0;
    for (; j0 + kJTileQuad <= n; j0 += kJTileQuad) {
      GemmRowQuadTileFixed<kJTileQuad>(a0, a1, a2, a3, k, b, n, j0, o0, o1,
                                       o2, o3);
    }
    if (j0 < n) {
      GemmRowQuadTile(a0, a1, a2, a3, k, b, n, j0, n - j0, o0, o1, o2, o3);
    }
  }
#endif
  for (; i + 2 <= m; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* o0 = out + i * n;
    float* o1 = o0 + n;
    size_t j0 = 0;
    for (; j0 + kJTile <= n; j0 += kJTile) {
      GemmRowPairTileFixed<kJTile>(a0, a1, k, b, n, j0, o0, o1);
    }
    if (j0 < n) GemmRowPairTile(a0, a1, k, b, n, j0, n - j0, o0, o1);
  }
  if (i < m) {
    const float* a_row = a + i * k;
    float* out_row = out + i * n;
    size_t j0 = 0;
    for (; j0 + kJTile <= n; j0 += kJTile) {
      GemmRowTileFixed<kJTile>(a_row, k, b, n, j0, out_row);
    }
    if (j0 < n) GemmRowTile(a_row, k, b, n, j0, n - j0, out_row);
  }
}

void GemmZeroSkip(const float* a, size_t m, size_t k, const float* b, size_t n,
                  float* out) {
  std::memset(out, 0, m * n * sizeof(float));
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void AddBiasRows(float* x, size_t rows, size_t cols, const float* bias) {
  for (size_t i = 0; i < rows; ++i) {
    float* row = x + i * cols;
    for (size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void AddInPlace(float* dst, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AddScaledInPlace(float* dst, const float* src, float scale, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void Mul(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void MulInPlace(float* dst, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void ScaleInPlace(float* x, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

void AddScalarInPlace(float* x, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] += s;
}

void OneMinus(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = 1.0f - a[i];
}

void Sigmoid(float* x, size_t n) { ApplyLanewise<SigmoidLanes>(x, n); }

void TanhInPlace(float* x, size_t n) { ApplyLanewise<TanhLanes>(x, n); }

void Tanh(const float* a, float* out, size_t n) {
  std::memcpy(out, a, n * sizeof(float));
  ApplyLanewise<TanhLanes>(out, n);
}

void Relu(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void Copy(const float* src, float* dst, size_t n) {
  std::memcpy(dst, src, n * sizeof(float));
}

void Zero(float* x, size_t n) { std::memset(x, 0, n * sizeof(float)); }

float Sum(const float* x, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

void MulAccumulate(float* dst, const float* g, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i] * b[i];
}

void SigmoidBackwardAccumulate(float* dst, const float* g, const float* y,
                               size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float yi = y[i];
    dst[i] += g[i] * yi * (1.0f - yi);
  }
}

void TanhBackwardAccumulate(float* dst, const float* g, const float* y,
                            size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float yi = y[i];
    dst[i] += g[i] * (1.0f - yi * yi);
  }
}

void ReluBackwardAccumulate(float* dst, const float* g, const float* x,
                            size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] > 0.0f) dst[i] += g[i];
  }
}

void AbsBackwardAccumulate(float* dst, const float* g, const float* x,
                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    if (xi > 0.0f) {
      dst[i] += g[i];
    } else if (xi < 0.0f) {
      dst[i] -= g[i];
    }
  }
}

void GemmNT(const float* a, size_t m, size_t k, const float* b, size_t n,
            float* out) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      out_row[j] = acc;
    }
  }
}

// fp-contract=off: the build's -ffast-math would otherwise fuse the product
// and the add into one FMA, which rounds once where m single-row backward
// passes (TransposeMatMul, then AddInPlace) round twice.
#if defined(__clang__)
void AccumulateOuterRows(const float* a, size_t k, const float* g, size_t n,
                         const int* rows, size_t m, float* grad) {
#pragma clang fp contract(off)
#else
__attribute__((optimize("fp-contract=off"))) void AccumulateOuterRows(
    const float* a, size_t k, const float* g, size_t n, const int* rows,
    size_t m, float* grad) {
#endif
  for (size_t i = 0; i < k; ++i) {
    float* grad_row = grad + i * n;
    for (size_t r = 0; r < m; ++r) {
      const size_t row = static_cast<size_t>(rows[r]);
      const float av = a[row * k + i];
      if (av == 0.0f) continue;
      const float* g_row = g + row * n;
      for (size_t j = 0; j < n; ++j) grad_row[j] += av * g_row[j];
    }
  }
}

}  // namespace lpce::nn::kernels
