// Dense row-major float matrix — the numeric workhorse under the parameters
// (nn/layers.h) and the models' forward passes. Cache-friendly loops; the
// three matrix products go row-blocked parallel (common/thread_pool.h) above
// a flop cutoff, with a per-output-element accumulation order identical to
// the sequential loops, so results are bit-identical at every thread count.
// Sized for the small models the paper uses (hidden dims 64-1024).
#ifndef LPCE_NN_MATRIX_H_
#define LPCE_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace lpce::nn {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(size_t rows, size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    LPCE_CHECK(data_.size() == rows_ * cols_);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    LPCE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    LPCE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// this += other (element-wise; shapes must match).
  void AddInPlace(const Matrix& other);
  /// this += scale * other.
  void AddScaledInPlace(const Matrix& other, float scale);

  /// Returns this * other (matrix product).
  Matrix MatMul(const Matrix& other) const;
  /// Returns this^T * other without materializing the transpose.
  Matrix TransposeMatMul(const Matrix& other) const;
  /// Returns this * other^T without materializing the transpose.
  Matrix MatMulTranspose(const Matrix& other) const;

  Matrix Transpose() const;

  /// Frobenius-norm helpers used by tests and gradient clipping.
  float SumAbs() const;
  float SumSquares() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// In-place element-wise activations (inference fast path).
void SigmoidInPlace(Matrix* m);
void TanhInPlace(Matrix* m);
void ReluInPlace(Matrix* m);

/// Caps the number of threads the matrix products may use (0 = the global
/// pool's full size, 1 = sequential). Training configs set this from their
/// num_threads knob; any cap yields bit-identical results.
void SetMatMulThreads(int num_threads);
int MatMulThreads();

}  // namespace lpce::nn

#endif  // LPCE_NN_MATRIX_H_
