// Unit tests for the tests' autograd oracle (testing/tape.h): op forward
// values and numerical gradient checks for every differentiable op, the
// taped layers and both recurrent cells; plus the optimizer and the
// parameter store.
#include <cmath>
#include <cstdio>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/cells.h"
#include "nn/layers.h"
#include "testing/tape.h"

namespace lpce::nn {
namespace {

// Numerically checks d(loss)/d(value[i]) against autograd for every element
// of a trainable `value` whose gradient lands in `grad`, where `loss_fn`
// rebuilds the graph from scratch each call.
void CheckGradients(Matrix* value, Matrix* grad,
                    const std::function<Tensor()>& loss_fn,
                    float tol = 2e-2f) {
  Tensor loss = loss_fn();
  Backward(loss);
  Matrix analytic = *grad;

  const float eps = 1e-2f;
  for (size_t i = 0; i < value->size(); ++i) {
    const float orig = value->data()[i];
    value->data()[i] = orig + eps;
    const float up = loss_fn()->value().at(0, 0);
    value->data()[i] = orig - eps;
    const float down = loss_fn()->value().at(0, 0);
    value->data()[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(1.0f, std::fabs(numeric)))
        << "element " << i;
  }
  grad->Zero();
}

void CheckGradients(const Tensor& leaf, const std::function<Tensor()>& loss_fn,
                    float tol = 2e-2f) {
  CheckGradients(&leaf->mutable_value(), &leaf->grad(), loss_fn, tol);
}

void CheckGradients(Param* param, const std::function<Tensor()>& loss_fn,
                    float tol = 2e-2f) {
  CheckGradients(&param->mutable_value(), &param->grad(), loss_fn, tol);
}

Tensor RandomInput(Rng* rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformDouble(-1.0, 1.0));
  }
  return MakeTensor(std::move(m));
}

TEST(MatrixTest, MatMulMatchesManual) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.MatMul(b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatrixTest, TransposeVariantsAgree) {
  Rng rng(7);
  Matrix a(4, 3), b(4, 5);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = (float)rng.UniformDouble();
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = (float)rng.UniformDouble();
  Matrix expect = a.Transpose().MatMul(b);
  Matrix got = a.TransposeMatMul(b);
  ASSERT_TRUE(expect.SameShape(got));
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(expect.data()[i], got.data()[i], 1e-5f);
  }
  Matrix expect2 = a.MatMul(b.MatMul(Matrix(5, 3, 0.1f)).Transpose());
  Matrix got2 = a.MatMulTranspose(b.MatMul(Matrix(5, 3, 0.1f)));
  for (size_t i = 0; i < expect2.size(); ++i) {
    EXPECT_NEAR(expect2.data()[i], got2.data()[i], 1e-4f);
  }
}

TEST(TensorTest, MatMulGradient) {
  Rng rng(1);
  Tensor w = MakeTensor(Matrix(3, 2, {0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f}),
                        /*requires_grad=*/true);
  Tensor x = RandomInput(&rng, 2, 3);
  CheckGradients(w, [&] { return Sum(MatMul(x, w)); });
}

TEST(TensorTest, ElementwiseOpGradients) {
  Rng rng(2);
  Tensor w = MakeTensor(Matrix(1, 4, {0.5f, -0.4f, 0.3f, 0.9f}), true);
  Tensor x = RandomInput(&rng, 1, 4);
  CheckGradients(w, [&] { return Sum(Mul(w, x)); });
  CheckGradients(w, [&] { return Sum(Add(w, x)); });
  CheckGradients(w, [&] { return Sum(Sub(x, w)); });
  CheckGradients(w, [&] { return Sum(Sigmoid(w)); });
  CheckGradients(w, [&] { return Sum(Tanh(w)); });
  CheckGradients(w, [&] { return Sum(Relu(w)); });
  CheckGradients(w, [&] { return Sum(Abs(w)); });
  CheckGradients(w, [&] { return Sum(Scale(AddScalar(w, 1.5f), -2.0f)); });
  CheckGradients(w, [&] { return Sum(ConcatCols(Mul(w, w), x)); });
}

TEST(TensorTest, BroadcastBiasGradient) {
  Rng rng(3);
  Tensor bias = MakeTensor(Matrix(1, 3, {0.1f, 0.2f, -0.3f}), true);
  Tensor x = RandomInput(&rng, 4, 3);
  CheckGradients(bias, [&] { return Sum(Sigmoid(AddRowBroadcast(x, bias))); });
}

TEST(TensorTest, SharedSubexpressionGradient) {
  // y = w used twice: gradient must accumulate from both paths.
  Tensor w = MakeTensor(Matrix(1, 2, {0.7f, -0.3f}), true);
  CheckGradients(w, [&] { return Sum(Add(Mul(w, w), w)); });
}

TEST(TensorTest, RepeatedBackwardAccumulatesOnLeavesOnly) {
  Tensor w = MakeTensor(Matrix(1, 1, {2.0f}), true);
  Tensor x = MakeTensor(Matrix(1, 1, {3.0f}));
  for (int i = 0; i < 2; ++i) {
    Tensor loss = Sum(Mul(w, x));
    Backward(loss);
  }
  // Two backward passes over fresh graphs: leaf gradient accumulates 3 + 3.
  EXPECT_FLOAT_EQ(w->grad().at(0, 0), 6.0f);
}

TEST(LayersTest, LinearForwardShape) {
  Rng rng(4);
  ParamStore store;
  Linear lin(&store, "lin", 5, 3, &rng);
  Tensor x = RandomInput(&rng, 2, 5);
  Tensor y = Forward(lin, x);
  EXPECT_EQ(y->value().rows(), 2u);
  EXPECT_EQ(y->value().cols(), 3u);
  EXPECT_EQ(store.names().size(), 2u);
}

TEST(LayersTest, LinearGradients) {
  Rng rng(5);
  ParamStore store;
  Linear lin(&store, "lin", 3, 2, &rng);
  Tensor x = RandomInput(&rng, 1, 3);
  CheckGradients(store.Get("lin.W"), [&] { return Sum(Tanh(Forward(lin, x))); });
  store.ZeroGrads();
  CheckGradients(store.Get("lin.b"), [&] { return Sum(Tanh(Forward(lin, x))); });
}

TEST(CellsTest, SruStepMatchesEquation) {
  Rng rng(6);
  ParamStore store;
  TreeSruCell cell(&store, "sru", 4, &rng);
  Tensor x = RandomInput(&rng, 1, 4);
  Tensor cl = RandomInput(&rng, 1, 4);
  Tensor cr = RandomInput(&rng, 1, 4);
  CellOutput out = Step(cell, x, cl, cr);
  ASSERT_EQ(out.c->value().cols(), 4u);
  ASSERT_EQ(out.h->value().cols(), 4u);

  // Recompute by hand from the parameters.
  auto mat_vec = [&](const char* name, const char* bias) {
    Matrix w = store.Get(name)->value();
    Matrix b = store.Get(bias)->value();
    Matrix r = x->value().MatMul(w);
    for (size_t j = 0; j < r.cols(); ++j) r.at(0, j) += b.at(0, j);
    return r;
  };
  Matrix x_tilde = mat_vec("sru.wx.W", "sru.wx.b");
  Matrix f = mat_vec("sru.wf.W", "sru.wf.b");
  Matrix r = mat_vec("sru.wr.W", "sru.wr.b");
  for (size_t j = 0; j < 4; ++j) {
    const float fj = 1.0f / (1.0f + std::exp(-f.at(0, j)));
    const float rj = 1.0f / (1.0f + std::exp(-r.at(0, j)));
    const float cj = fj * (cl->value().at(0, j) + cr->value().at(0, j)) +
                     (1.0f - fj) * x_tilde.at(0, j);
    const float hj =
        rj * std::tanh(cj) + (1.0f - rj) * x->value().at(0, j);
    EXPECT_NEAR(out.c->value().at(0, j), cj, 1e-5f);
    EXPECT_NEAR(out.h->value().at(0, j), hj, 1e-5f);
  }
}

TEST(CellsTest, SruGradientsThroughTree) {
  Rng rng(8);
  ParamStore store;
  TreeSruCell cell(&store, "sru", 3, &rng);
  Tensor x1 = RandomInput(&rng, 1, 3);
  Tensor x2 = RandomInput(&rng, 1, 3);
  Tensor x3 = RandomInput(&rng, 1, 3);
  auto loss_fn = [&] {
    CellOutput leaf1 = Step(cell, x1, nullptr, nullptr);
    CellOutput leaf2 = Step(cell, x2, nullptr, nullptr);
    CellOutput root = Step(cell, x3, leaf1.c, leaf2.c);
    return Sum(Add(root.h, root.c));
  };
  CheckGradients(store.Get("sru.wf.W"), loss_fn);
  store.ZeroGrads();
  CheckGradients(store.Get("sru.wx.W"), loss_fn);
}

TEST(CellsTest, LstmGradientsThroughTree) {
  Rng rng(9);
  ParamStore store;
  TreeLstmCell cell(&store, "lstm", 3, &rng);
  Tensor x1 = RandomInput(&rng, 1, 3);
  Tensor x2 = RandomInput(&rng, 1, 3);
  auto loss_fn = [&] {
    CellOutput leaf = Step(cell, x1, nullptr, nullptr, nullptr, nullptr);
    CellOutput root = Step(cell, x2, leaf.c, leaf.h, nullptr, nullptr);
    return Sum(root.h);
  };
  CheckGradients(store.Get("lstm.ui.W"), loss_fn);
  store.ZeroGrads();
  CheckGradients(store.Get("lstm.uf.W"), loss_fn);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize sum((w - target)^2) — Adam should reach the target.
  Rng rng(10);
  ParamStore store;
  Param* w = store.GetOrCreate("w", 1, 3, 1.0f, &rng);
  Matrix target(1, 3, {0.3f, -1.2f, 2.5f});
  Adam adam(&store, {.lr = 5e-2f});
  for (int step = 0; step < 500; ++step) {
    Tensor diff = Sub(Leaf(w), MakeTensor(target));
    Tensor loss = Sum(Mul(diff, diff));
    Backward(loss);
    adam.Step();
  }
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(w->value().at(0, j), target.at(0, j), 1e-2f);
  }
}

TEST(ParamStoreTest, SaveLoadRoundTrip) {
  Rng rng(11);
  ParamStore store;
  const Param* a = store.GetOrCreate("a", 2, 3, 1.0f, &rng);
  const Param* b = store.GetOrCreate("b", 1, 4, 1.0f, &rng);
  const std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());

  Rng rng2(99);
  ParamStore store2;
  const Param* a2 = store2.GetOrCreate("a", 2, 3, 1.0f, &rng2);
  const Param* b2 = store2.GetOrCreate("b", 1, 4, 1.0f, &rng2);
  ASSERT_TRUE(store2.LoadFromFile(path).ok());
  for (size_t i = 0; i < a->value().size(); ++i) {
    EXPECT_FLOAT_EQ(a2->value().data()[i], a->value().data()[i]);
  }
  for (size_t i = 0; i < b->value().size(); ++i) {
    EXPECT_FLOAT_EQ(b2->value().data()[i], b->value().data()[i]);
  }
}

TEST(ParamStoreTest, LoadRejectsShapeMismatch) {
  Rng rng(12);
  ParamStore store;
  store.GetOrCreate("a", 2, 3, 1.0f, &rng);
  const std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());

  ParamStore other;
  other.GetOrCreate("a", 3, 3, 1.0f, &rng);
  EXPECT_FALSE(other.LoadFromFile(path).ok());
}

TEST(ParamStoreTest, SaveReportsAFailedWrite) {
  // /dev/full accepts the open and fails every write with ENOSPC, as a full
  // disk does; the device itself must survive the failed save.
  Rng rng(13);
  ParamStore store;
  store.GetOrCreate("a", 64, 64, 1.0f, &rng);
  const Status status = store.SaveToFile("/dev/full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  std::FILE* f = std::fopen("/dev/full", "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

}  // namespace
}  // namespace lpce::nn
