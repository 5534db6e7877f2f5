// Trainable parameter storage and the basic layers used by the LPCE models.
#ifndef LPCE_NN_LAYERS_H_
#define LPCE_NN_LAYERS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/tensor.h"

namespace lpce::nn {

/// Owns all trainable tensors of a model, keyed by unique names. The
/// optimizer iterates its parameters; Save/Load (de)serialize them.
class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  /// Creates (or returns the existing) parameter with the given shape,
  /// initialized from U(-limit, limit).
  Tensor GetOrCreate(const std::string& name, size_t rows, size_t cols,
                     float limit, Rng* rng);

  Tensor Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return params_.find(name) != params_.end();
  }

  const std::vector<std::string>& names() const { return names_; }
  size_t NumParams() const;

  void ZeroGrads();
  /// Scales every gradient by 1/n (to average over a minibatch).
  void ScaleGrads(float scale);
  /// Global L2 norm over every parameter's gradient.
  float GradNorm() const;
  /// Global L2-norm gradient clipping.
  void ClipGradNorm(float max_norm);

  /// Binary serialization of every parameter (name, shape, data).
  Status SaveToFile(const std::string& path) const;
  /// Loads values into parameters; shapes must already match (create the
  /// model first, then load).
  Status LoadFromFile(const std::string& path);

 private:
  std::unordered_map<std::string, Tensor> params_;
  std::vector<std::string> names_;  // insertion order, for stable serialization
};

/// Fully connected layer y = x W + b with W of shape (in, out).
class Linear {
 public:
  Linear() = default;
  /// Registers (or re-attaches to) parameters "<prefix>.W" / "<prefix>.b".
  Linear(ParamStore* store, const std::string& prefix, size_t in, size_t out,
         Rng* rng);

  Tensor Forward(const Tensor& x) const;

  /// Inference fast path: x W + b on plain matrices, no autograd graph.
  Matrix Apply(const Matrix& x) const;

  size_t in_dim() const { return in_; }
  size_t out_dim() const { return out_; }

  /// Raw parameter views for the tape-free batched inference path, which
  /// runs kernels directly on arena buffers instead of building Matrix
  /// temporaries.
  const Matrix& weight() const { return w_->value(); }
  const Matrix& bias() const { return b_->value(); }
  /// The parameters' gradient buffers, for the level-batched trainer
  /// (lpce/tree_model.cc), which accumulates into them off the tape.
  Matrix& weight_grad() const { return w_->grad(); }
  Matrix& bias_grad() const { return b_->grad(); }

 private:
  Tensor w_;
  Tensor b_;
  size_t in_ = 0;
  size_t out_ = 0;
};

/// Two-layer MLP with a configurable inner activation; the paper's embed and
/// output modules are both of this shape.
class Mlp2 {
 public:
  enum class Activation { kRelu, kSigmoid, kNone };

  Mlp2() = default;
  Mlp2(ParamStore* store, const std::string& prefix, size_t in, size_t hidden,
       size_t out, Rng* rng);

  /// hidden = act1(x W1 + b1); y = act2(hidden W2 + b2).
  Tensor Forward(const Tensor& x, Activation inner = Activation::kRelu,
                 Activation outer = Activation::kNone) const;

  /// Pre-activation output of the second layer (the "logit" used by the
  /// knowledge-distillation prediction loss, paper Eq. 5).
  Tensor ForwardLogit(const Tensor& x, Activation inner = Activation::kRelu) const;

  /// Inference fast paths (no autograd graph).
  Matrix Apply(const Matrix& x, Activation inner = Activation::kRelu,
               Activation outer = Activation::kNone) const;
  Matrix ApplyLogit(const Matrix& x, Activation inner = Activation::kRelu) const;

  /// Layer views for the tape-free batched inference path.
  const Linear& l1() const { return l1_; }
  const Linear& l2() const { return l2_; }

 private:
  Linear l1_;
  Linear l2_;
};

}  // namespace lpce::nn

#endif  // LPCE_NN_LAYERS_H_
