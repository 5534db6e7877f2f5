// Adam regression: bias corrections must track the double-precision
// reference even at large step counts. The float-pow version drifted from
// the reference at beta2 = 0.999 (1 - beta2^t is a near-cancellation until t
// is in the thousands); the fix computes bc1/bc2 in double.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"

namespace lpce::nn {
namespace {

// Deterministic per-step gradient pattern.
float GradAt(int64_t t, size_t i) {
  return static_cast<float>(((t * 31 + static_cast<int64_t>(i) * 17) % 101 - 50)) /
         50.0f;
}

TEST(AdamTest, TenThousandStepsMatchDoubleReference) {
  const size_t n = 8;
  const int64_t steps = 10000;
  const Adam::Options opts;  // defaults: lr 1e-3, betas 0.9/0.999, eps 1e-8

  Rng rng(3);
  ParamStore store;
  Param* param = store.GetOrCreate("w", 1, n, 0.5f, &rng);
  const Matrix initial = param->value();
  Adam adam(&store);

  // Reference: identical float state arithmetic, bias corrections computed
  // in double — exactly the contract Adam::Step must honor.
  std::vector<float> ref(n), m(n, 0.0f), v(n, 0.0f);
  for (size_t i = 0; i < n; ++i) ref[i] = initial.at(0, i);

  for (int64_t t = 1; t <= steps; ++t) {
    for (size_t i = 0; i < n; ++i) {
      param->grad().at(0, i) = GradAt(t, i);
    }
    adam.Step();

    const float bc1 = static_cast<float>(
        1.0 - std::pow(static_cast<double>(opts.beta1), static_cast<double>(t)));
    const float bc2 = static_cast<float>(
        1.0 - std::pow(static_cast<double>(opts.beta2), static_cast<double>(t)));
    for (size_t i = 0; i < n; ++i) {
      const float g = GradAt(t, i);
      m[i] = opts.beta1 * m[i] + (1.0f - opts.beta1) * g;
      v[i] = opts.beta2 * v[i] + (1.0f - opts.beta2) * g * g;
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      ref[i] -= opts.lr * m_hat / (std::sqrt(v_hat) + opts.eps);
    }
  }

  EXPECT_EQ(adam.steps(), steps);
  for (size_t i = 0; i < n; ++i) {
    // The states are float on both sides; only rounding/contraction noise may
    // differ. The old float-pow corrections drifted far beyond this band in
    // the early steps where 1 - beta2^t is a near-cancellation.
    EXPECT_NEAR(param->value().at(0, i), ref[i], 1e-5f) << "element " << i;
  }
}

TEST(AdamTest, EarlyStepBiasCorrectionIsExact) {
  // After exactly one step with gradient g, m_hat = g and v_hat = g^2, so the
  // update is lr * g / (|g| + eps) — any bias-correction error shows up
  // directly. Checks the cancellation-prone small-t regime.
  Rng rng(4);
  ParamStore store;
  Param* param = store.GetOrCreate("w", 1, 1, 0.0f, &rng);
  param->mutable_value().at(0, 0) = 1.0f;
  Adam::Options opts;
  opts.lr = 0.01f;
  Adam adam(&store, opts);
  param->grad().at(0, 0) = 0.5f;
  adam.Step();
  EXPECT_NEAR(param->value().at(0, 0), 1.0f - 0.01f * 0.5f / (0.5f + opts.eps),
              1e-6f);
}

}  // namespace
}  // namespace lpce::nn
