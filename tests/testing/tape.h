// The tests' autograd oracle: reverse-mode automatic differentiation over
// Matrix values, and taped forwards of the layers and cells in nn/.
//
// A dynamic compute graph is built per training sample (the tree-structured
// SRU/LSTM models have sample-dependent topology); Backward(root) then
// accumulates gradients into every reachable node with requires_grad set.
// A parameter enters a graph as a leaf bound to its nn::Param: the leaf reads
// the parameter's value and adds into its gradient in place, so gradients
// accumulate across samples until the optimizer steps. The production
// trainers run explicit backward kernels instead; the oracle tests pin their
// gradients to this tape's bit for bit.
#ifndef LPCE_TESTS_TESTING_TAPE_H_
#define LPCE_TESTS_TESTING_TAPE_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/cells.h"
#include "nn/layers.h"
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
  /// A trainable leaf bound to a parameter's storage (see Leaf()).
  explicit TensorNode(Param* param)
      : param_(param), requires_grad_(true) {}

  const Matrix& value() const {
    return param_ != nullptr ? param_->value() : value_;
  }
  Matrix& mutable_value() {
    return param_ != nullptr ? param_->mutable_value() : value_;
  }

  bool requires_grad() const { return requires_grad_; }

  /// Gradient of the scalar loss w.r.t. this node. Allocated lazily; a
  /// bound leaf's is its parameter's.
  Matrix& grad() {
    if (param_ != nullptr) return param_->grad();
    if (grad_.rows() != value_.rows() || grad_.cols() != value_.cols()) {
      grad_ = Matrix(value_.rows(), value_.cols(), 0.0f);
    }
    return grad_;
  }

  void ZeroGrad() { grad() = Matrix(value().rows(), value().cols(), 0.0f); }

  // Graph wiring (used by the op constructors below).
  std::vector<Tensor>& inputs() { return inputs_; }
  void set_backward(std::function<void(TensorNode*)> fn) { backward_ = std::move(fn); }
  bool has_backward() const { return static_cast<bool>(backward_); }
  void RunBackward() {
    if (backward_) backward_(this);
  }

 private:
  Param* param_ = nullptr;
  Matrix value_;
  Matrix grad_;
  bool requires_grad_;
  std::vector<Tensor> inputs_;
  std::function<void(TensorNode*)> backward_;
};

/// Creates a leaf tensor holding its own value.
Tensor MakeTensor(Matrix value, bool requires_grad = false);
/// A trainable leaf that reads `param`'s value and accumulates into its
/// gradient. Each use may bind a fresh leaf: leaves run no backward, so the
/// graph's op order is the same as with one shared leaf.
Tensor Leaf(Param* param);

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
/// gradient d(loss)/d(root).
void Backward(const Tensor& root, const Matrix& seed);

// ---- Taped forwards of the nn/ layers (the production code runs them as
// matrix kernels). ----

/// x W + b.
Tensor Forward(const Linear& layer, const Tensor& x);
/// hidden = act1(x W1 + b1); y = act2(hidden W2 + b2).
Tensor Forward(const Mlp2& mlp, const Tensor& x,
               Mlp2::Activation inner = Mlp2::Activation::kRelu,
               Mlp2::Activation outer = Mlp2::Activation::kNone);
/// The second layer's pre-activation output.
Tensor ForwardLogit(const Mlp2& mlp, const Tensor& x,
                    Mlp2::Activation inner = Mlp2::Activation::kRelu);

/// Result of one recurrent step: the node encoding c (passed to the parent)
/// and the node representation h (fed to the output module).
struct CellOutput {
  Tensor c;
  Tensor h;
};

/// One tree-SRU step (cells.h). Either child may be null (leaf / unary
/// node); missing children contribute a zero encoding.
CellOutput Step(const TreeSruCell& cell, const Tensor& x, const Tensor& c_left,
                const Tensor& c_right);
/// One tree-LSTM step; children pass both their c and h. Null children are
/// zeros.
CellOutput Step(const TreeLstmCell& cell, const Tensor& x,
                const Tensor& c_left, const Tensor& h_left,
                const Tensor& c_right, const Tensor& h_right);

}  // namespace lpce::nn

#endif  // LPCE_TESTS_TESTING_TAPE_H_
