#include "testing/tape.h"

#include <cmath>
#include <unordered_set>

#include "common/profiler.h"
#include "nn/kernels.h"

namespace lpce::nn {

namespace {

bool AnyRequiresGrad(const std::vector<Tensor>& inputs) {
  for (const auto& t : inputs) {
    if (t->requires_grad()) return true;
  }
  return false;
}

Tensor MakeOp(Matrix value, std::vector<Tensor> inputs,
              std::function<void(TensorNode*)> backward) {
  bool req = AnyRequiresGrad(inputs);
  auto node = std::make_shared<TensorNode>(std::move(value), req);
  if (req) {
    node->inputs() = std::move(inputs);
    node->set_backward(std::move(backward));
  }
  return node;
}

}  // namespace

Tensor MakeTensor(Matrix value, bool requires_grad) {
  return std::make_shared<TensorNode>(std::move(value), requires_grad);
}

Tensor Leaf(Param* param) { return std::make_shared<TensorNode>(param); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Matrix out = a->value().MatMul(b->value());
  return MakeOp(std::move(out), {a, b}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    Tensor a_in = self->inputs()[0];
    Tensor b_in = self->inputs()[1];
    if (a_in->requires_grad()) {
      // dL/dA = G * B^T
      a_in->grad().AddInPlace(g.MatMulTranspose(b_in->value()));
    }
    if (b_in->requires_grad()) {
      // dL/dB = A^T * G
      b_in->grad().AddInPlace(a_in->value().TransposeMatMul(g));
    }
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  LPCE_CHECK(a->value().SameShape(b->value()));
  Matrix out = a->value();
  out.AddInPlace(b->value());
  return MakeOp(std::move(out), {a, b}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    for (auto& in : self->inputs()) {
      if (in->requires_grad()) in->grad().AddInPlace(g);
    }
  });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  const Matrix& av = a->value();
  const Matrix& bv = bias->value();
  LPCE_CHECK(bv.rows() == 1 && bv.cols() == av.cols());
  Matrix out = av;
  kernels::AddBiasRows(out.data(), out.rows(), out.cols(), bv.data());
  return MakeOp(std::move(out), {a, bias}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    Tensor a_in = self->inputs()[0];
    Tensor b_in = self->inputs()[1];
    if (a_in->requires_grad()) a_in->grad().AddInPlace(g);
    if (b_in->requires_grad()) {
      Matrix& bg = b_in->grad();
      for (size_t i = 0; i < g.rows(); ++i) {
        for (size_t j = 0; j < g.cols(); ++j) bg.at(0, j) += g.at(i, j);
      }
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  LPCE_CHECK(a->value().SameShape(b->value()));
  Matrix out = a->value();
  out.AddScaledInPlace(b->value(), -1.0f);
  return MakeOp(std::move(out), {a, b}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    Tensor a_in = self->inputs()[0];
    Tensor b_in = self->inputs()[1];
    if (a_in->requires_grad()) a_in->grad().AddInPlace(g);
    if (b_in->requires_grad()) b_in->grad().AddScaledInPlace(g, -1.0f);
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  LPCE_CHECK(a->value().SameShape(b->value()));
  Matrix out = a->value();
  kernels::MulInPlace(out.data(), b->value().data(), out.size());
  return MakeOp(std::move(out), {a, b}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    Tensor a_in = self->inputs()[0];
    Tensor b_in = self->inputs()[1];
    if (a_in->requires_grad()) {
      kernels::MulAccumulate(a_in->grad().data(), g.data(),
                             b_in->value().data(), g.size());
    }
    if (b_in->requires_grad()) {
      kernels::MulAccumulate(b_in->grad().data(), g.data(),
                             a_in->value().data(), g.size());
    }
  });
}

Tensor Scale(const Tensor& a, float s) {
  Matrix out = a->value();
  kernels::ScaleInPlace(out.data(), s, out.size());
  return MakeOp(std::move(out), {a}, [s](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (a_in->requires_grad()) a_in->grad().AddScaledInPlace(self->grad(), s);
  });
}

Tensor AddScalar(const Tensor& a, float s) {
  Matrix out = a->value();
  kernels::AddScalarInPlace(out.data(), s, out.size());
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (a_in->requires_grad()) a_in->grad().AddInPlace(self->grad());
  });
}

Tensor Sigmoid(const Tensor& a) {
  Matrix out = a->value();
  kernels::Sigmoid(out.data(), out.size());
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (!a_in->requires_grad()) return;
    const Matrix& g = self->grad();
    kernels::SigmoidBackwardAccumulate(a_in->grad().data(), g.data(),
                                       self->value().data(), g.size());
  });
}

Tensor Tanh(const Tensor& a) {
  Matrix out = a->value();
  kernels::TanhInPlace(out.data(), out.size());
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (!a_in->requires_grad()) return;
    const Matrix& g = self->grad();
    kernels::TanhBackwardAccumulate(a_in->grad().data(), g.data(),
                                    self->value().data(), g.size());
  });
}

Tensor Relu(const Tensor& a) {
  Matrix out = a->value();
  kernels::Relu(out.data(), out.size());
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (!a_in->requires_grad()) return;
    const Matrix& g = self->grad();
    kernels::ReluBackwardAccumulate(a_in->grad().data(), g.data(),
                                    a_in->value().data(), g.size());
  });
}

Tensor Abs(const Tensor& a) {
  Matrix out = a->value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::fabs(out.data()[i]);
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (!a_in->requires_grad()) return;
    const Matrix& g = self->grad();
    kernels::AbsBackwardAccumulate(a_in->grad().data(), g.data(),
                                   a_in->value().data(), g.size());
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  const Matrix& av = a->value();
  const Matrix& bv = b->value();
  LPCE_CHECK(av.rows() == bv.rows());
  Matrix out(av.rows(), av.cols() + bv.cols());
  for (size_t i = 0; i < av.rows(); ++i) {
    for (size_t j = 0; j < av.cols(); ++j) out.at(i, j) = av.at(i, j);
    for (size_t j = 0; j < bv.cols(); ++j) out.at(i, av.cols() + j) = bv.at(i, j);
  }
  return MakeOp(std::move(out), {a, b}, [](TensorNode* self) {
    const Matrix& g = self->grad();
    Tensor a_in = self->inputs()[0];
    Tensor b_in = self->inputs()[1];
    const size_t a_cols = a_in->value().cols();
    if (a_in->requires_grad()) {
      Matrix& ag = a_in->grad();
      for (size_t i = 0; i < ag.rows(); ++i) {
        for (size_t j = 0; j < a_cols; ++j) ag.at(i, j) += g.at(i, j);
      }
    }
    if (b_in->requires_grad()) {
      Matrix& bg = b_in->grad();
      for (size_t i = 0; i < bg.rows(); ++i) {
        for (size_t j = 0; j < bg.cols(); ++j) bg.at(i, j) += g.at(i, a_cols + j);
      }
    }
  });
}

Tensor Sum(const Tensor& a) {
  Matrix out(1, 1);
  out.at(0, 0) = kernels::Sum(a->value().data(), a->value().size());
  return MakeOp(std::move(out), {a}, [](TensorNode* self) {
    Tensor a_in = self->inputs()[0];
    if (!a_in->requires_grad()) return;
    const float g = self->grad().at(0, 0);
    Matrix& ag = a_in->grad();
    for (size_t i = 0; i < ag.size(); ++i) ag.data()[i] += g;
  });
}

void Backward(const Tensor& root) {
  LPCE_CHECK_MSG(root->value().rows() == 1 && root->value().cols() == 1,
                 "Backward root must be a 1x1 scalar");
  Backward(root, Matrix(1, 1, 1.0f));
}

void Backward(const Tensor& root, const Matrix& seed) {
  LPCE_PROFILE_SCOPE("nn.backward");
  LPCE_CHECK_MSG(root->value().SameShape(seed),
                 "Backward seed must match the root's shape");
  // Iterative post-order DFS to get a reverse-topological order.
  std::vector<TensorNode*> order;
  std::unordered_set<TensorNode*> visited;
  std::vector<std::pair<TensorNode*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->inputs().size()) {
      TensorNode* child = node->inputs()[idx].get();
      ++idx;
      if (child->requires_grad() && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Zero interior gradients so repeated Backward calls on fresh graphs that
  // share parameter leaves accumulate only into the leaves.
  for (TensorNode* node : order) {
    if (node->has_backward()) node->ZeroGrad();
  }
  root->grad() = seed;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    (*it)->RunBackward();
  }
}

Tensor Forward(const Linear& layer, const Tensor& x) {
  return AddRowBroadcast(MatMul(x, Leaf(layer.weight_param())),
                         Leaf(layer.bias_param()));
}

namespace {

Tensor Activate(const Tensor& x, Mlp2::Activation act) {
  switch (act) {
    case Mlp2::Activation::kRelu:
      return Relu(x);
    case Mlp2::Activation::kSigmoid:
      return Sigmoid(x);
    case Mlp2::Activation::kNone:
      return x;
  }
  return x;
}

Tensor ZeroVec(size_t dim) { return MakeTensor(Matrix(1, dim, 0.0f)); }

Tensor SumChildren(const Tensor& left, const Tensor& right, size_t dim) {
  if (left != nullptr && right != nullptr) return Add(left, right);
  if (left != nullptr) return left;
  if (right != nullptr) return right;
  return ZeroVec(dim);
}

/// 1 - t, element-wise.
Tensor OneMinus(const Tensor& t) { return AddScalar(Scale(t, -1.0f), 1.0f); }

}  // namespace

Tensor Forward(const Mlp2& mlp, const Tensor& x, Mlp2::Activation inner,
               Mlp2::Activation outer) {
  return Activate(Forward(mlp.l2(), Activate(Forward(mlp.l1(), x), inner)),
                  outer);
}

Tensor ForwardLogit(const Mlp2& mlp, const Tensor& x, Mlp2::Activation inner) {
  return Forward(mlp.l2(), Activate(Forward(mlp.l1(), x), inner));
}

CellOutput Step(const TreeSruCell& cell, const Tensor& x, const Tensor& c_left,
                const Tensor& c_right) {
  LPCE_CHECK(x->value().cols() == cell.dim());
  Tensor x_tilde = Forward(cell.wx(), x);
  Tensor f = Sigmoid(Forward(cell.wf(), x));
  Tensor r = Sigmoid(Forward(cell.wr(), x));
  Tensor child_sum = SumChildren(c_left, c_right, cell.dim());
  Tensor c = Add(Mul(f, child_sum), Mul(OneMinus(f), x_tilde));
  Tensor h = Add(Mul(r, Tanh(c)), Mul(OneMinus(r), x));
  return {c, h};
}

CellOutput Step(const TreeLstmCell& cell, const Tensor& x,
                const Tensor& c_left, const Tensor& h_left,
                const Tensor& c_right, const Tensor& h_right) {
  LPCE_CHECK(x->value().cols() == cell.dim());
  const size_t dim = cell.dim();
  Tensor h_sum = SumChildren(h_left, h_right, dim);
  Tensor i = Sigmoid(Add(Forward(cell.wi(), x), Forward(cell.ui(), h_sum)));
  Tensor o = Sigmoid(Add(Forward(cell.wo(), x), Forward(cell.uo(), h_sum)));
  Tensor g = Tanh(Add(Forward(cell.wg(), x), Forward(cell.ug(), h_sum)));
  Tensor c = Mul(i, g);
  if (c_left != nullptr) {
    Tensor hl = h_left != nullptr ? h_left : ZeroVec(dim);
    Tensor fl = Sigmoid(Add(Forward(cell.wf(), x), Forward(cell.uf(), hl)));
    c = Add(c, Mul(fl, c_left));
  }
  if (c_right != nullptr) {
    Tensor hr = h_right != nullptr ? h_right : ZeroVec(dim);
    Tensor fr = Sigmoid(Add(Forward(cell.wf(), x), Forward(cell.uf(), hr)));
    c = Add(c, Mul(fr, c_right));
  }
  Tensor h = Mul(o, Tanh(c));
  return {c, h};
}

}  // namespace lpce::nn
