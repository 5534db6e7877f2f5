// Trainable parameter storage and the basic layers used by the LPCE models.
//
// A parameter is a plain {value, grad} matrix pair. Forward passes read the
// values; training runs explicit backward kernels (nn/kernels.h) that add
// into the gradients, and the optimizer (nn/adam.h) steps on them.
#ifndef LPCE_NN_LAYERS_H_
#define LPCE_NN_LAYERS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/arena.h"
#include "nn/matrix.h"

namespace lpce::nn {

/// One trainable parameter: a plain {value, grad} matrix pair. The gradient
/// has the value's shape and accumulates until the optimizer steps (zero
/// after ZeroGrads). It is allocated on first use, so a model's values sit
/// next to each other in memory, as inference reads them.
class Param {
 public:
  explicit Param(Matrix value) : value_(std::move(value)) {}

  const Matrix& value() const { return value_; }
  Matrix& mutable_value() { return value_; }
  /// Empty until the first non-const grad() (an all-zero gradient).
  const Matrix& grad() const { return grad_; }
  Matrix& grad() {
    if (grad_.size() != value_.size()) {
      grad_ = Matrix(value_.rows(), value_.cols(), 0.0f);
    }
    return grad_;
  }

 private:
  Matrix value_;
  Matrix grad_;
};

/// Owns all trainable parameters of a model, keyed by unique names. The
/// optimizer iterates its parameters; Save/Load (de)serialize them.
/// Pointers returned by Get/GetOrCreate stay valid for the store's life.
class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  /// Creates (or returns the existing) parameter with the given shape,
  /// initialized from U(-limit, limit).
  Param* GetOrCreate(const std::string& name, size_t rows, size_t cols,
                     float limit, Rng* rng);

  Param* Get(const std::string& name);
  const Param* Get(const std::string& name) const;
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

  /// Binary serialization of every parameter (name, shape, data). Every
  /// write and the close are checked; on failure a partially written
  /// regular file is removed and the status is IoError.
  Status SaveToFile(const std::string& path) const;
  /// Loads values into parameters; shapes must already match (create the
  /// model first, then load).
  Status LoadFromFile(const std::string& path);

 private:
  // GradNorm, ScaleGrads and ZeroGrads iterate this map: its key order fixes
  // the clip norm's summation order, and with it the trained bits.
  std::unordered_map<std::string, Param> params_;
  std::vector<std::string> names_;  // insertion order, for stable serialization
};

/// Fully connected layer y = x W + b with W of shape (in, out).
class Linear {
 public:
  Linear() = default;
  /// Registers (or re-attaches to) parameters "<prefix>.W" / "<prefix>.b".
  Linear(ParamStore* store, const std::string& prefix, size_t in, size_t out,
         Rng* rng);

  /// x W + b over every row of x.
  Matrix Apply(const Matrix& x) const;

  /// Input gradient over n rows: dx [n x in] = dy W^T.
  void BackwardInput(const float* dy, size_t n, float* dx) const;
  /// Adds x_r^T dy_r to W's gradient and dy_r to b's for r = rows[0], ...,
  /// rows[count-1], in that order: exactly `count` single-row backward
  /// passes, one rounded product per row (kernels::AccumulateOuterRows).
  /// x has row stride in_dim(), dy row stride out_dim().
  void AccumulateGrads(const float* x, const float* dy, const int* rows,
                       size_t count) const;

  size_t in_dim() const { return in_; }
  size_t out_dim() const { return out_; }

  /// Raw parameter views for the kernels, which run directly on arena
  /// buffers instead of building Matrix temporaries.
  const Matrix& weight() const { return w_->value(); }
  const Matrix& bias() const { return b_->value(); }
  /// The parameters themselves (the tests' taped oracle binds them).
  Param* weight_param() const { return w_; }
  Param* bias_param() const { return b_; }

 private:
  Param* w_ = nullptr;
  Param* b_ = nullptr;
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

  /// hidden = act1(x W1 + b1); y = act2(hidden W2 + b2), row by row.
  Matrix Apply(const Matrix& x, Activation inner = Activation::kRelu,
               Activation outer = Activation::kNone) const;
  /// The second layer's pre-activation output (the "logit" used by the
  /// knowledge-distillation prediction loss, paper Eq. 5).
  Matrix ApplyLogit(const Matrix& x, Activation inner = Activation::kRelu) const;

  /// Row-batched backward of ApplyLogit with a kRelu inner activation, from
  /// dy = d(loss)/d(hidden W2 + b2) over n rows. `h1` is the post-relu hidden
  /// layer the forward kept; writes d(x W1 + b1) into `d_h1` [n x hidden]
  /// and, when `dx` is non-null, d(x) = d_h1 W1^T into it [n x in].
  void Backward(const float* h1, const float* dy, size_t n, float* d_h1,
                float* dx, InferArena* arena) const;
  /// Both layers' parameter gradients over `rows`, in that order.
  void AccumulateGrads(const float* x, const float* h1, const float* dy,
                       const float* d_h1, const int* rows, size_t count) const;

  /// Layer views for the kernels.
  const Linear& l1() const { return l1_; }
  const Linear& l2() const { return l2_; }

 private:
  Linear l1_;
  Linear l2_;
};

}  // namespace lpce::nn

#endif  // LPCE_NN_LAYERS_H_
