#include "nn/cells.h"

namespace lpce::nn {

namespace {

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

TreeSruCell::TreeSruCell(ParamStore* store, const std::string& prefix, size_t dim,
                         Rng* rng)
    : wx_(store, prefix + ".wx", dim, dim, rng),
      wf_(store, prefix + ".wf", dim, dim, rng),
      wr_(store, prefix + ".wr", dim, dim, rng),
      dim_(dim) {}

CellOutput TreeSruCell::Step(const Tensor& x, const Tensor& c_left,
                             const Tensor& c_right) const {
  LPCE_CHECK(x->value().cols() == dim_);
  Tensor x_tilde = wx_.Forward(x);
  Tensor f = Sigmoid(wf_.Forward(x));
  Tensor r = Sigmoid(wr_.Forward(x));
  Tensor child_sum = SumChildren(c_left, c_right, dim_);
  Tensor c = Add(Mul(f, child_sum), Mul(OneMinus(f), x_tilde));
  Tensor h = Add(Mul(r, Tanh(c)), Mul(OneMinus(r), x));
  return {c, h};
}

TreeLstmCell::TreeLstmCell(ParamStore* store, const std::string& prefix, size_t dim,
                           Rng* rng)
    : wi_(store, prefix + ".wi", dim, dim, rng),
      ui_(store, prefix + ".ui", dim, dim, rng),
      wf_(store, prefix + ".wf", dim, dim, rng),
      uf_(store, prefix + ".uf", dim, dim, rng),
      wo_(store, prefix + ".wo", dim, dim, rng),
      uo_(store, prefix + ".uo", dim, dim, rng),
      wg_(store, prefix + ".wg", dim, dim, rng),
      ug_(store, prefix + ".ug", dim, dim, rng),
      dim_(dim) {}

CellOutput TreeLstmCell::Step(const Tensor& x, const Tensor& c_left,
                              const Tensor& h_left, const Tensor& c_right,
                              const Tensor& h_right) const {
  LPCE_CHECK(x->value().cols() == dim_);
  Tensor h_sum = SumChildren(h_left, h_right, dim_);
  Tensor i = Sigmoid(Add(wi_.Forward(x), ui_.Forward(h_sum)));
  Tensor o = Sigmoid(Add(wo_.Forward(x), uo_.Forward(h_sum)));
  Tensor g = Tanh(Add(wg_.Forward(x), ug_.Forward(h_sum)));
  Tensor c = Mul(i, g);
  if (c_left != nullptr) {
    Tensor hl = h_left != nullptr ? h_left : ZeroVec(dim_);
    Tensor fl = Sigmoid(Add(wf_.Forward(x), uf_.Forward(hl)));
    c = Add(c, Mul(fl, c_left));
  }
  if (c_right != nullptr) {
    Tensor hr = h_right != nullptr ? h_right : ZeroVec(dim_);
    Tensor fr = Sigmoid(Add(wf_.Forward(x), uf_.Forward(hr)));
    c = Add(c, Mul(fr, c_right));
  }
  Tensor h = Mul(o, Tanh(c));
  return {c, h};
}

}  // namespace lpce::nn
