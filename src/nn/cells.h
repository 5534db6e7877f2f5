// Tree-structured recurrent cells.
//
// TreeSruCell implements the simple recurrent unit of paper Eq. (1), extended
// to binary trees: the children encodings are summed (c_l + c_r). It needs
// 3 input-side matrix multiplications versus the tree-LSTM's 8, which is the
// source of LPCE-I's inference-speed advantage over TLSTM (Sec. 4.2).
//
// TreeLstmCell is a child-sum binary tree LSTM (Tai et al. style) used by the
// TLSTM baseline and the LPCE-T ablation.
//
// The cells own their gate layers only. The level kernels in
// lpce/tree_model.cc run their forward and backward passes over a whole
// level of plan nodes at once.
#ifndef LPCE_NN_CELLS_H_
#define LPCE_NN_CELLS_H_

#include <string>

#include "nn/layers.h"

namespace lpce::nn {

/// Tree SRU (paper Eq. 1):
///   x~ = W_x x
///   f  = sigmoid(W_f x + b_f)
///   r  = sigmoid(W_r x + b_r)
///   c  = f (.) (c_l + c_r) + (1 - f) (.) x~
///   h  = r (.) tanh(c) + (1 - r) (.) x
/// x, c and h all have the same dimensionality `dim`. A missing child
/// contributes a zero encoding.
class TreeSruCell {
 public:
  TreeSruCell() = default;
  TreeSruCell(ParamStore* store, const std::string& prefix, size_t dim, Rng* rng);

  size_t dim() const { return dim_; }

  /// Gate layers, for the level kernels.
  const Linear& wx() const { return wx_; }
  const Linear& wf() const { return wf_; }
  const Linear& wr() const { return wr_; }

 private:
  Linear wx_;  // no bias in the paper's x~ = W_x x; we keep the bias at zero init
  Linear wf_;
  Linear wr_;
  size_t dim_ = 0;
};

/// Binary child-sum tree LSTM:
///   i = sigmoid(W_i x + U_i (h_l + h_r) + b_i)
///   f_k = sigmoid(W_f x + U_f h_k + b_f)     for each child k
///   o = sigmoid(W_o x + U_o (h_l + h_r) + b_o)
///   g = tanh(W_g x + U_g (h_l + h_r) + b_g)
///   c = i (.) g + f_l (.) c_l + f_r (.) c_r
///   h = o (.) tanh(c)
/// A missing child contributes no forget term; an injected child (an
/// encoding without an h) contributes one with h_k = 0.
class TreeLstmCell {
 public:
  TreeLstmCell() = default;
  TreeLstmCell(ParamStore* store, const std::string& prefix, size_t dim, Rng* rng);

  size_t dim() const { return dim_; }

  /// Gate layers, for the level kernels.
  const Linear& wi() const { return wi_; }
  const Linear& ui() const { return ui_; }
  const Linear& wf() const { return wf_; }
  const Linear& uf() const { return uf_; }
  const Linear& wo() const { return wo_; }
  const Linear& uo() const { return uo_; }
  const Linear& wg() const { return wg_; }
  const Linear& ug() const { return ug_; }

 private:
  Linear wi_, ui_;
  Linear wf_, uf_;
  Linear wo_, uo_;
  Linear wg_, ug_;
  size_t dim_ = 0;
};

}  // namespace lpce::nn

#endif  // LPCE_NN_CELLS_H_
