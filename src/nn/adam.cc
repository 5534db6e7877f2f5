#include "nn/adam.h"

#include <cmath>

#include "common/profiler.h"

namespace lpce::nn {

void Adam::Step() {
  LPCE_PROFILE_SCOPE("nn.adam_step");
  ++t_;
  // Bias corrections in double: float pow drifts visibly from the reference
  // value at large t with beta2 = 0.999 (1 - beta2^t is a difference of
  // nearly-equal numbers until t is in the thousands).
  const float bc1 = static_cast<float>(
      1.0 - std::pow(static_cast<double>(options_.beta1), static_cast<double>(t_)));
  const float bc2 = static_cast<float>(
      1.0 - std::pow(static_cast<double>(options_.beta2), static_cast<double>(t_)));
  for (const auto& name : store_->names()) {
    Param* param = store_->Get(name);
    Matrix& value = param->mutable_value();
    const Matrix& grad = param->grad();
    State& s = state_[name];
    if (s.m.size() != value.size()) {
      s.m = Matrix(value.rows(), value.cols(), 0.0f);
      s.v = Matrix(value.rows(), value.cols(), 0.0f);
    }
    for (size_t i = 0; i < value.size(); ++i) {
      float g = grad.data()[i];
      if (options_.weight_decay > 0.0f) g += options_.weight_decay * value.data()[i];
      s.m.data()[i] = options_.beta1 * s.m.data()[i] + (1.0f - options_.beta1) * g;
      s.v.data()[i] = options_.beta2 * s.v.data()[i] + (1.0f - options_.beta2) * g * g;
      const float m_hat = s.m.data()[i] / bc1;
      const float v_hat = s.v.data()[i] / bc2;
      value.data()[i] -= options_.lr * m_hat / (std::sqrt(v_hat) + options_.eps);
    }
  }
  store_->ZeroGrads();
}

void MiniBatchStep::Run(int batch_count) {
  const float scale = 1.0f / static_cast<float>(batch_count);
  for (size_t i = 0; i < stores.size(); ++i) {
    ParamStore* store = stores[i].first;
    store->ScaleGrads(scale);
    if (i == 0) {
      grad_norm_sum += static_cast<double>(store->GradNorm());
      ++steps;
    }
    store->ClipGradNorm(grad_clip);
  }
  for (auto& [store, adam] : stores) adam->Step();
  if (after_step) after_step();
}

double MiniBatchStep::TakeEpochGradNorm() {
  const double mean = steps > 0 ? grad_norm_sum / steps : 0.0;
  grad_norm_sum = 0.0;
  steps = 0;
  return mean;
}

}  // namespace lpce::nn
