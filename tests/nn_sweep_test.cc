// Parameterized sweeps over the nn substrate on the tests' autograd tape:
// forward/backward consistency and gradient correctness across cell types,
// dimensions, and tree depths — the configurations the LPCE models actually
// instantiate.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/cells.h"
#include "testing/tape.h"

namespace lpce::nn {
namespace {

struct SweepParam {
  bool lstm;
  int dim;
  int depth;  // left-deep chain length
};

class CellSweepTest : public ::testing::TestWithParam<SweepParam> {};

Tensor RandomVec(Rng* rng, size_t dim, bool requires_grad = false) {
  Matrix m(1, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  }
  return MakeTensor(std::move(m), requires_grad);
}

// Builds a left-deep chain of `depth` cell steps and returns the scalar sum
// of the root h (graph mode).
Tensor ChainLoss(bool lstm, const TreeSruCell& sru, const TreeLstmCell& lstm_cell,
                 const std::vector<Tensor>& inputs) {
  Tensor c, h;
  for (const Tensor& x : inputs) {
    if (lstm) {
      CellOutput out = Step(lstm_cell, x, c, h, nullptr, nullptr);
      c = out.c;
      h = out.h;
    } else {
      CellOutput out = Step(sru, x, c, nullptr);
      c = out.c;
      h = out.h;
    }
  }
  return Sum(h);
}

TEST_P(CellSweepTest, GradientsFlowThroughDeepChains) {
  const SweepParam param = GetParam();
  Rng rng(static_cast<uint64_t>(param.dim * 7 + param.depth));
  ParamStore store;
  TreeSruCell sru;
  TreeLstmCell lstm;
  if (param.lstm) {
    lstm = TreeLstmCell(&store, "cell", param.dim, &rng);
  } else {
    sru = TreeSruCell(&store, "cell", param.dim, &rng);
  }
  std::vector<Tensor> inputs;
  for (int i = 0; i < param.depth; ++i) {
    inputs.push_back(RandomVec(&rng, param.dim));
  }
  Tensor loss = ChainLoss(param.lstm, sru, lstm, inputs);
  Backward(loss);
  // Every parameter must receive a non-zero, finite gradient (no vanishing
  // to exactly zero, no NaN blow-up at these depths).
  for (const auto& name : store.names()) {
    const Matrix& grad = store.Get(name)->grad();
    float sum_abs = grad.SumAbs();
    EXPECT_TRUE(std::isfinite(sum_abs)) << name;
    if (name.find(".b") == std::string::npos) {  // weight matrices
      EXPECT_GT(sum_abs, 0.0f) << name;
    }
  }
}

TEST_P(CellSweepTest, AdamStepReducesChainLoss) {
  const SweepParam param = GetParam();
  if (param.depth > 8) GTEST_SKIP() << "optimization check on short chains only";
  Rng rng(static_cast<uint64_t>(param.dim + param.depth));
  ParamStore store;
  TreeSruCell sru;
  TreeLstmCell lstm;
  if (param.lstm) {
    lstm = TreeLstmCell(&store, "cell", param.dim, &rng);
  } else {
    sru = TreeSruCell(&store, "cell", param.dim, &rng);
  }
  std::vector<Tensor> inputs;
  for (int i = 0; i < param.depth; ++i) {
    inputs.push_back(RandomVec(&rng, param.dim));
  }
  Adam adam(&store, {.lr = 1e-2f});
  // Minimize (sum h)^2 toward zero.
  auto loss_value = [&]() {
    Tensor s = ChainLoss(param.lstm, sru, lstm, inputs);
    Tensor sq = Mul(s, s);
    return sq;
  };
  const float before = loss_value()->value().at(0, 0);
  for (int step = 0; step < 60; ++step) {
    Tensor loss = loss_value();
    Backward(loss);
    adam.Step();
  }
  const float after = loss_value()->value().at(0, 0);
  EXPECT_LT(after, before);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CellSweepTest,
    ::testing::Values(SweepParam{false, 8, 3}, SweepParam{false, 32, 9},
                      SweepParam{false, 96, 17}, SweepParam{true, 8, 3},
                      SweepParam{true, 32, 9}, SweepParam{true, 96, 17}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(info.param.lstm ? "Lstm" : "Sru") + "Dim" +
             std::to_string(info.param.dim) + "Depth" +
             std::to_string(info.param.depth);
    });

}  // namespace
}  // namespace lpce::nn
