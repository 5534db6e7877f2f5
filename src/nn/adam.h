// Adam optimizer (Kingma & Ba) over a ParamStore — the paper trains all
// models with Adam (Sec. 7.1).
#ifndef LPCE_NN_ADAM_H_
#define LPCE_NN_ADAM_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/layers.h"

namespace lpce::nn {

class Adam {
 public:
  struct Options {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  explicit Adam(ParamStore* store) : store_(store), options_() {}
  Adam(ParamStore* store, Options options) : store_(store), options_(options) {}

  /// Applies one update using the gradients currently in the store, then
  /// zeroes them.
  void Step();

  void set_lr(float lr) { options_.lr = lr; }
  float lr() const { return options_.lr; }
  int64_t steps() const { return t_; }

 private:
  struct State {
    Matrix m;
    Matrix v;
  };

  ParamStore* store_;
  Options options_;
  int64_t t_ = 0;
  std::unordered_map<std::string, State> state_;
};

/// The end-of-mini-batch update of every trainer, for full and trailing
/// partial batches alike: each store's gradients are averaged over the
/// `batch_count` samples and clipped to `grad_clip`, the first store's
/// pre-clip global norm is added to the epoch tally, and each Adam steps.
/// `after_step` (may be empty) runs last.
struct MiniBatchStep {
  std::vector<std::pair<ParamStore*, Adam*>> stores;
  float grad_clip = 5.0f;
  std::function<void()> after_step;
  // Epoch tally of pre-clip norms.
  double grad_norm_sum = 0.0;
  int steps = 0;

  void Run(int batch_count);
  /// Mean pre-clip norm since the last call; resets the tally.
  double TakeEpochGradNorm();
};

}  // namespace lpce::nn

#endif  // LPCE_NN_ADAM_H_
