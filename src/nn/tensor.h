// Reverse-mode automatic differentiation over Matrix values.
//
// A dynamic compute graph is built per training sample (the tree-structured
// SRU/LSTM models have sample-dependent topology); Backward(root) then
// accumulates gradients into every reachable node with requires_grad set.
// Parameters are long-lived tensors owned by a ParamStore (nn/layers.h);
// their gradients accumulate across samples until the optimizer steps.
#ifndef LPCE_NN_TENSOR_H_
#define LPCE_NN_TENSOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace lpce::nn {

class TensorNode;
using Tensor = std::shared_ptr<TensorNode>;

/// One vertex of the autograd graph: a value, an optional gradient, and the
/// backward function that scatters this node's gradient into its inputs.
class TensorNode {
 public:
  explicit TensorNode(Matrix value, bool requires_grad = false)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Matrix& value() const { return value_; }
  Matrix& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }

  /// Gradient of the scalar loss w.r.t. this node. Allocated lazily.
  Matrix& grad() {
    if (grad_.rows() != value_.rows() || grad_.cols() != value_.cols()) {
      grad_ = Matrix(value_.rows(), value_.cols(), 0.0f);
    }
    return grad_;
  }

  void ZeroGrad() { grad_ = Matrix(value_.rows(), value_.cols(), 0.0f); }

  // Graph wiring (used by the op constructors below).
  std::vector<Tensor>& inputs() { return inputs_; }
  void set_backward(std::function<void(TensorNode*)> fn) { backward_ = std::move(fn); }
  bool has_backward() const { return static_cast<bool>(backward_); }
  void RunBackward() {
    if (backward_) backward_(this);
  }

 private:
  Matrix value_;
  Matrix grad_;
  bool requires_grad_;
  std::vector<Tensor> inputs_;
  std::function<void(TensorNode*)> backward_;
};

/// Creates a leaf tensor. requires_grad marks trainable parameters.
Tensor MakeTensor(Matrix value, bool requires_grad = false);

/// Matrix product a(m,k) * b(k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Element-wise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
/// Adds a 1xN bias row to every row of a (MxN).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);
/// Element-wise difference a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Element-wise (Hadamard) product.
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * scalar.
Tensor Scale(const Tensor& a, float s);
/// a + scalar (element-wise).
Tensor AddScalar(const Tensor& a, float s);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
/// Element-wise |a| (subgradient 0 at 0).
Tensor Abs(const Tensor& a);
/// Horizontal concatenation [a | b] (same row count).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Sum of all elements, as a 1x1 tensor.
Tensor Sum(const Tensor& a);

/// Runs reverse-mode accumulation from a 1x1 root (seeds d(root)/d(root) = 1).
void Backward(const Tensor& root);

/// Reverse-mode accumulation from a root of any shape, seeded with the given
/// gradient d(loss)/d(root) — for a sub-graph whose output gradient was
/// computed off the tape (LPCE-R's Connect under the level-batched trainer).
void Backward(const Tensor& root, const Matrix& seed);

}  // namespace lpce::nn

#endif  // LPCE_NN_TENSOR_H_
