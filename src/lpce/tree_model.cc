#include "lpce/tree_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/timer.h"
#include "nn/kernels.h"

namespace lpce::model {

namespace {

/// Applies a training config's matmul thread cap for the duration of a
/// training run, restoring the previous cap on exit.
class ScopedMatMulThreads {
 public:
  explicit ScopedMatMulThreads(int num_threads) : prev_(nn::MatMulThreads()) {
    nn::SetMatMulThreads(num_threads);
  }
  ~ScopedMatMulThreads() { nn::SetMatMulThreads(prev_); }

 private:
  int prev_;
};

}  // namespace

std::unique_ptr<EstNode> MakeEstTree(
    const qry::Query& query, const qry::LogicalNode* logical,
    const db::Database& database,
    const std::unordered_map<qry::RelSet, uint64_t>* labels) {
  auto node = std::make_unique<EstNode>();
  node->rels = logical->rels;
  if (labels != nullptr) {
    auto it = labels->find(logical->rels);
    if (it != labels->end()) node->true_card = static_cast<double>(it->second);
  }
  if (logical->is_leaf()) {
    node->table_pos = logical->table_pos;
    node->child_card_left = static_cast<double>(
        database.table(query.tables[logical->table_pos]).num_rows());
    node->child_card_right = 0.0;
    return node;
  }
  node->join_idx = logical->join_idx;
  node->left = MakeEstTree(query, logical->left.get(), database, labels);
  node->right = MakeEstTree(query, logical->right.get(), database, labels);
  node->child_card_left = node->left->true_card;
  node->child_card_right = node->right->true_card;
  return node;
}

TreeModel::TreeModel(const FeatureEncoder* encoder, TreeModelConfig config)
    : encoder_(encoder), config_(config) {
  LPCE_CHECK(config_.feature_dim == encoder->dim());
  Rng rng(config_.seed);
  const size_t in = static_cast<size_t>(input_dim());
  const size_t dim = static_cast<size_t>(config_.dim);
  embed_ = nn::Mlp2(&params_, "embed", in, static_cast<size_t>(config_.embed_hidden),
                    dim, &rng);
  if (config_.use_lstm) {
    lstm_ = nn::TreeLstmCell(&params_, "lstm", dim, &rng);
  } else {
    sru_ = nn::TreeSruCell(&params_, "sru", dim, &rng);
  }
  output_ = nn::Mlp2(&params_, "output", dim, static_cast<size_t>(config_.out_hidden),
                     1, &rng);
}

double TreeModel::CardToY(double card) const {
  const double y = std::log1p(std::max(0.0, card)) / config_.log_max_card;
  return std::clamp(y, 0.0, 1.0);
}

// Out of line on purpose: inlined into a loop, expm1 may be vectorized
// (libmvec), and vector and scalar libm can differ in the last ulp. One scalar
// body makes every card conversion value-deterministic, like the lanewise
// Sigmoid/Tanh kernels in nn/kernels.cc.
__attribute__((noinline)) double TreeModel::YToCard(double y) const {
  return std::expm1(std::clamp(y, 0.0, 1.0) * config_.log_max_card);
}

void TreeModel::CopyParamsFrom(const TreeModel& other) {
  for (const auto& name : other.params().names()) {
    params_.Get(name)->mutable_value() = other.params().Get(name)->value();
  }
}

nn::Matrix TreeModel::BuildFeatureCache(const qry::Query& query,
                                        const EstNode* root) const {
  // Post-order count of non-injected nodes, then one encoder row each.
  size_t count = 0;
  std::function<void(const EstNode*)> count_walk = [&](const EstNode* node) {
    if (node->is_injected()) return;
    if (node->left != nullptr) count_walk(node->left.get());
    if (node->right != nullptr) count_walk(node->right.get());
    ++count;
  };
  count_walk(root);
  nn::Matrix cache(count, static_cast<size_t>(config_.feature_dim));
  size_t row = 0;
  std::function<void(const EstNode*)> fill_walk = [&](const EstNode* node) {
    if (node->is_injected()) return;
    if (node->left != nullptr) fill_walk(node->left.get());
    if (node->right != nullptr) fill_walk(node->right.get());
    float* dst = cache.data() + row * cache.cols();
    if (node->is_leaf()) {
      encoder_->EncodeScanInto(query, node->table_pos, dst);
    } else {
      encoder_->EncodeJoinInto(query, node->join_idx, dst);
    }
    ++row;
  };
  fill_walk(root);
  return cache;
}

double TreeModel::PredictCardFast(const qry::Query& query, const EstNode* root,
                                  bool dynamic_child_cards) const {
  LPCE_PROFILE_SCOPE("lpce.predict_fast");
  LPCE_CHECK_MSG(!root->is_injected(), "cannot estimate a fully-injected tree");
  return Infer(query, root, dynamic_child_cards).root_card;
}

void TreeModel::PredictAllFast(
    const qry::Query& query, const EstNode* root,
    std::vector<std::pair<qry::RelSet, double>>* out) const {
  Infer(query, root, /*dynamic_child_cards=*/false, out);
}

nn::Matrix TreeModel::EncodeRootFast(const qry::Query& query,
                                     const EstNode* root) const {
  LPCE_CHECK_MSG(!root->is_injected(), "cannot encode a fully-injected tree");
  InferResult res = Infer(query, root);
  nn::Matrix c(1, static_cast<size_t>(config_.dim));
  nn::kernels::Copy(res.root_c, c.data(), c.size());
  return c;
}

// ---------------------------------------------------------------------------
// Level-batched forward.
//
// Trees are flattened once into a per-thread workspace; nodes are grouped by
// depth (children are always exactly one level deeper than their parent) and
// each depth runs embed / cell / output as single [N x d] matmuls, deepest
// level first. Each node's operations are a fixed sequence of the shared
// out-of-line kernels in nn/kernels.h, one rounding per element per
// operation, so outputs are bit-identical at any batch composition (and to
// the tests' one-node-at-a-time taped oracle).
// ---------------------------------------------------------------------------

struct TreeModel::LevelBatch {
  size_t n = 0;
  /// [n x input_dim], filled by the caller before RunLevelBatch.
  float* x_in = nullptr;
  /// Per-row child states (null = absent child / no h). h_* are only read by
  /// the LSTM cell.
  const float* const* c_left = nullptr;
  const float* const* c_right = nullptr;
  const float* const* h_left = nullptr;
  const float* const* h_right = nullptr;
  // Outputs, arena-owned: [n x dim] encodings/representations and [n] ys.
  float* c = nullptr;
  float* h = nullptr;
  float* y = nullptr;
};

namespace {

/// Reusable per-thread scratch for the flatten + level loop. Vectors keep
/// their capacity across queries, so steady-state inference does not touch
/// the heap (the float intermediates live in the InferArena).
struct InferWorkspace {
  struct FlatNode {
    const EstNode* node = nullptr;
    int left = -1;
    int right = -1;
    int tree = 0;
    int depth = 0;
    bool injected = false;
  };
  std::vector<FlatNode> nodes;
  std::vector<int> roots;            // flat index of each tree's root
  std::vector<int> post_order;       // non-injected flat indices, per tree
  std::vector<size_t> tree_post_begin;
  std::vector<int> by_depth;         // flat indices grouped by depth
  std::vector<size_t> depth_begin;
  // Per-flat-node results.
  std::vector<const float*> c_of, h_of;
  std::vector<double> card_of;
  std::vector<float> y_of;
  // Per-level scratch.
  std::vector<int> rows;             // flat index per batch row
  std::vector<const float*> cl, cr, hl, hr;
  std::vector<int> gather;           // LSTM child-pass row gather
  std::vector<int> u_gather;         // LSTM rows with a non-zero child h-sum
  // Hoisted-path compute order: non-injected flat indices, deepest level
  // first, with per-level slice bounds.
  std::vector<int> comp_rows;
  std::vector<size_t> comp_begin;
  // Subset-pass scratch: CellPre row per join edge, the distinct edges in
  // first-use order, and each level row's CellPre row.
  std::vector<uint32_t> edge_row;
  std::vector<int> edges;
  std::vector<uint32_t> pre_rows;
  // DFS scratch.
  struct StackEntry {
    const EstNode* node;
    int depth;
    int parent;
    bool is_right;
  };
  std::vector<StackEntry> stack;
  std::vector<std::pair<int, int>> post_stack;  // (flat idx, visit stage)
};

InferWorkspace& TlsInferWorkspace() {
  thread_local InferWorkspace ws;
  return ws;
}

}  // namespace

/// Child-independent products for a batch of rows: the embedded features and
/// every W.x linear of the recurrent cell. Computing these once for a whole
/// multi-level batch (instead of once per level) streams each weight matrix
/// through cache a single time — at the typical 1-2 rows per level of a
/// left-deep plan, weight traffic, not arithmetic, dominates.
struct TreeModel::CellPre {
  float* h1 = nullptr;  // [n x embed_hidden] embed hidden layer, post-relu
  float* x = nullptr;  // [n x d] embedded features, post-relu
  // SRU: x~, and the f/r gates (already sigmoided — elementwise, so the
  // activation is batch-composition-invariant), and the cell's two
  // child-independent products (1 - f) (.) x~ and (1 - r) (.) x.
  float* xt = nullptr;
  float* f = nullptr;
  float* r = nullptr;
  float* omf_xt = nullptr;
  float* omr_x = nullptr;
  // LSTM: pre-activation x-side products (the gate sums need U.h first).
  float* wi_x = nullptr;
  float* wo_x = nullptr;
  float* wg_x = nullptr;
  float* wf_x = nullptr;
};

namespace {

/// y = x W + b over `rows` rows — Linear::Apply's exact kernel sequence.
float* LinearRows(const nn::Linear& l, const float* in, size_t rows, size_t id,
                  size_t od, nn::InferArena* arena) {
  namespace k = nn::kernels;
  float* out = arena->Alloc(rows * od);
  k::Gemm(in, rows, id, l.weight().data(), od, out);
  k::AddBiasRows(out, rows, od, l.bias().data());
  return out;
}

}  // namespace

TreeModel::CellPre TreeModel::RunCellPre(const float* x_in, size_t n,
                                         nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t in_dim = static_cast<size_t>(input_dim());
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t eh = static_cast<size_t>(config_.embed_hidden);
  CellPre pre;

  // Embed module: relu(relu(x W1 + b1) W2 + b2), as Mlp2::Apply(kRelu,
  // kRelu). The first linear's input rows are encoder
  // features — a handful of one-hots in a sea of zeros — so it runs through
  // the zero-skip product, which is bit-identical to the dense kernel
  // (skipped terms contribute fma(0, w, acc) == acc; pinned bitwise by
  // tests/nn_kernels_test.cc).
  {
    LPCE_PROFILE_SCOPE("nn.infer.embed");
    float* h1 = arena->Alloc(n * eh);
    k::GemmZeroSkip(x_in, n, in_dim, embed_.l1().weight().data(), eh, h1);
    k::AddBiasRows(h1, n, eh, embed_.l1().bias().data());
    k::Relu(h1, n * eh);
    pre.h1 = h1;
    pre.x = LinearRows(embed_.l2(), h1, n, eh, d, arena);
    k::Relu(pre.x, n * d);
  }

  {
    LPCE_PROFILE_SCOPE("nn.infer.cell");
    if (!config_.use_lstm) {
      pre.xt = LinearRows(sru_.wx(), pre.x, n, d, d, arena);
      pre.f = LinearRows(sru_.wf(), pre.x, n, d, d, arena);
      k::Sigmoid(pre.f, n * d);
      pre.r = LinearRows(sru_.wr(), pre.x, n, d, d, arena);
      k::Sigmoid(pre.r, n * d);
      // The cell's OneMinus/Mul pairs that read no child.
      float* om = arena->Alloc(n * d);
      k::OneMinus(pre.f, om, n * d);
      pre.omf_xt = arena->Alloc(n * d);
      k::Mul(om, pre.xt, pre.omf_xt, n * d);
      k::OneMinus(pre.r, om, n * d);
      pre.omr_x = arena->Alloc(n * d);
      k::Mul(om, pre.x, pre.omr_x, n * d);
    } else {
      pre.wi_x = LinearRows(lstm_.wi(), pre.x, n, d, d, arena);
      pre.wo_x = LinearRows(lstm_.wo(), pre.x, n, d, d, arena);
      pre.wg_x = LinearRows(lstm_.wg(), pre.x, n, d, d, arena);
      pre.wf_x = LinearRows(lstm_.wf(), pre.x, n, d, d, arena);
    }
  }
  return pre;
}

void TreeModel::RunCellLevel(const CellPre& pre, size_t row0, size_t n,
                             const uint32_t* pre_rows,
                             const float* const* c_left,
                             const float* const* c_right,
                             const float* const* h_left,
                             const float* const* h_right, float* c, float* h,
                             nn::InferArena* arena,
                             const CellKeep* keep) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  LPCE_PROFILE_SCOPE("nn.infer.cell");
  auto pre_row = [&](size_t row) {
    return pre_rows != nullptr ? static_cast<size_t>(pre_rows[row]) : row0 + row;
  };
  // Calls fn(row, pre row, count) once per run of rows whose CellPre rows
  // are consecutive: one run for a contiguous level, so the elementwise
  // kernels see the same [count x d] spans either way (they are
  // value-deterministic per element, so the split never changes a bit).
  auto for_runs = [&](auto&& fn) {
    for (size_t row = 0; row < n;) {
      const size_t p = pre_row(row);
      size_t count = 1;
      while (row + count < n && pre_row(row + count) == p + count) ++count;
      fn(row, p, count);
      row += count;
    }
  };
  if (!config_.use_lstm) {
    // Tree SRU (paper Eq. 1), op by op. All the linears and the
    // child-independent products live in CellPre; only the child-dependent
    // elementwise work remains per level.
    // child_sum rows: Add for two children (one rounding), the child's c
    // itself for one, zero for none.
    float* cs = keep != nullptr ? keep->cs : arena->Alloc(n * d);
    for (size_t row = 0; row < n; ++row) {
      const float* l = c_left[row];
      const float* rgt = c_right[row];
      float* dst = cs + row * d;
      if (l != nullptr && rgt != nullptr) {
        k::Add(l, rgt, dst, d);
      } else if (l != nullptr) {
        k::Copy(l, dst, d);
      } else if (rgt != nullptr) {
        k::Copy(rgt, dst, d);
      } else {
        k::Zero(dst, d);
      }
    }
    // c = f (.) child_sum + (1 - f) (.) x~ and h = r (.) tanh(c) + (1 - r)
    // (.) x: one kernel per Mul/Add (no FMA fusion across ops).
    float* t = arena->Alloc(n * d);
    float* tc = keep != nullptr ? keep->tc : arena->Alloc(n * d);
    for_runs([&](size_t row, size_t p, size_t count) {
      const size_t at = row * d;
      const size_t from = p * d;
      const size_t len = count * d;
      k::Mul(pre.f + from, cs + at, t + at, len);
      k::Add(t + at, pre.omf_xt + from, c + at, len);
      k::Tanh(c + at, tc + at, len);
      k::Mul(pre.r + from, tc + at, t + at, len);
      k::Add(t + at, pre.omr_x + from, h + at, len);
    });
  } else {
    // Binary child-sum tree LSTM (nn/cells.h), op by op.
    InferWorkspace& ws = TlsInferWorkspace();
    // Rows with a zero child h-sum (leaves, and joins whose children are
    // all injected) get U*0 + bias == exactly the bias row, so the three
    // U products run only on the gathered non-zero rows — bit-identical
    // to the full product and typically half the rows of a plan level.
    ws.u_gather.clear();
    for (size_t row = 0; row < n; ++row) {
      if (h_left[row] != nullptr || h_right[row] != nullptr) {
        ws.u_gather.push_back(static_cast<int>(row));
      }
    }
    const size_t nu = ws.u_gather.size();
    float* hsg = arena->Alloc(nu * d);
    if (keep != nullptr) k::Zero(keep->hs, n * d);
    for (size_t g = 0; g < nu; ++g) {
      const size_t row = static_cast<size_t>(ws.u_gather[g]);
      const float* l = h_left[row];
      const float* rgt = h_right[row];
      float* dst = hsg + g * d;
      if (l != nullptr && rgt != nullptr) {
        k::Add(l, rgt, dst, d);
      } else {
        k::Copy(l != nullptr ? l : rgt, dst, d);
      }
      if (keep != nullptr) k::Copy(dst, keep->hs + row * d, d);
    }
    // U product over the gathered rows, scattered back with bias rows in
    // the skipped slots.
    auto u_linear = [&](const nn::Linear& l) {
      float* full = arena->Alloc(n * d);
      float* g_out = arena->Alloc(nu * d);
      if (nu > 0) {
        k::Gemm(hsg, nu, d, l.weight().data(), d, g_out);
        k::AddBiasRows(g_out, nu, d, l.bias().data());
      }
      size_t g = 0;
      for (size_t row = 0; row < n; ++row) {
        if (g < nu && ws.u_gather[g] == static_cast<int>(row)) {
          k::Copy(g_out + g * d, full + row * d, d);
          ++g;
        } else {
          k::Copy(l.bias().data(), full + row * d, d);
        }
      }
      return full;
    };
    // Gate sums W.x + U.h, the W.x rows read from CellPre run by run.
    auto gate = [&](const nn::Linear& u, const float* w_x) {
      const float* u_h = u_linear(u);
      float* g = arena->Alloc(n * d);
      for_runs([&](size_t row, size_t p, size_t count) {
        k::Add(w_x + p * d, u_h + row * d, g + row * d, count * d);
      });
      return g;
    };
    float* gi = gate(lstm_.ui(), pre.wi_x);
    k::Sigmoid(gi, n * d);
    float* go = gate(lstm_.uo(), pre.wo_x);
    k::Sigmoid(go, n * d);
    float* gg = gate(lstm_.ug(), pre.wg_x);
    k::TanhInPlace(gg, n * d);
    k::Mul(gi, gg, c, n * d);
    if (keep != nullptr) {
      k::Copy(gi, keep->i, n * d);
      k::Copy(go, keep->o, n * d);
      k::Copy(gg, keep->g, n * d);
    }
    // Forget-gate child terms. Both children's uf products run as ONE
    // gathered Gemm — all left-child rows first, then all right-child rows —
    // so the uf weight matrix streams through cache once per level instead
    // of twice. The per-row c updates are applied in that same order, which
    // is exactly the cell's left-then-right addition order, and Gemm row
    // partitioning is bitwise-invariant, so the merge is bit-identical to
    // two separate passes.
    ws.gather.clear();  // encodes (row << 1) | is_right
    for (size_t row = 0; row < n; ++row) {
      if (c_left[row] != nullptr) {
        ws.gather.push_back(static_cast<int>(row << 1));
      }
    }
    for (size_t row = 0; row < n; ++row) {
      if (c_right[row] != nullptr) {
        ws.gather.push_back(static_cast<int>((row << 1) | 1));
      }
    }
    if (!ws.gather.empty()) {
      const size_t m = ws.gather.size();
      float* hg = arena->Alloc(m * d);
      for (size_t g = 0; g < m; ++g) {
        const size_t row = static_cast<size_t>(ws.gather[g]) >> 1;
        const float* ch =
            (ws.gather[g] & 1) ? h_right[row] : h_left[row];
        if (ch != nullptr) {
          k::Copy(ch, hg + g * d, d);
        } else {
          k::Zero(hg + g * d, d);  // injected child: h_k = 0
        }
      }
      float* uf_h = LinearRows(lstm_.uf(), hg, m, d, d, arena);
      float* fk = arena->Alloc(m * d);
      for (size_t g = 0; g < m; ++g) {
        const size_t row = static_cast<size_t>(ws.gather[g]) >> 1;
        k::Add(pre.wf_x + pre_row(row) * d, uf_h + g * d, fk + g * d, d);
      }
      k::Sigmoid(fk, m * d);
      float* tmp = arena->Alloc(m * d);
      for (size_t g = 0; g < m; ++g) {
        const size_t row = static_cast<size_t>(ws.gather[g]) >> 1;
        const bool right = (ws.gather[g] & 1) != 0;
        const float* cc = right ? c_right[row] : c_left[row];
        k::Mul(fk + g * d, cc, tmp + g * d, d);
        k::AddInPlace(c + row * d, tmp + g * d, d);
        if (keep != nullptr) {
          k::Copy(fk + g * d, (right ? keep->fr : keep->fl) + row * d, d);
        }
      }
    }
    float* tc = keep != nullptr ? keep->tc : arena->Alloc(n * d);
    k::Tanh(c, tc, n * d);
    k::Mul(go, tc, h, n * d);
  }
}

float* TreeModel::RunOutputHead(const float* h, size_t n,
                                nn::InferArena* arena,
                                OutputActs* keep) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t oh = static_cast<size_t>(config_.out_hidden);
  // Output module: sigmoid(relu(h W1 + b1) W2 + b2) — Mlp2::ApplyLogit
  // (inner kRelu), then a Sigmoid.
  LPCE_PROFILE_SCOPE("nn.infer.output");
  float* o1 = LinearRows(output_.l1(), h, n, d, oh, arena);
  k::Relu(o1, n * oh);
  float* logit = LinearRows(output_.l2(), o1, n, oh, 1, arena);
  if (keep != nullptr) {
    keep->o1 = o1;
    keep->logit = arena->Alloc(n);
    k::Copy(logit, keep->logit, n);
  }
  k::Sigmoid(logit, n);
  return logit;
}

// ---- Backward level kernels (training on level kernels). ----------------
//
// Each kernel replays the chain rule of its part of the forward, op by op and
// row-parallel: the shared kernels of nn/kernels.h, and, into a gradient an
// activation gathers from several consumers, the terms in the order per-tree
// reverse-mode passes add them (DESIGN.md "Training on level kernels"). The
// comments name the forward op each line differentiates.

void TreeModel::RunOutputHeadBackward(const float* dlogit, const float* o1,
                                      size_t n, float* d_o1, float* dh,
                                      nn::InferArena* arena) const {
  LPCE_PROFILE_SCOPE("nn.train.output_bwd");
  output_.Backward(o1, dlogit, n, d_o1, dh, arena);
}

void TreeModel::RunCellLevelBackward(
    const CellPre& pre, const CellKeep& keep, size_t row0, size_t n,
    const float* dh, const float* const* c_left, const float* const* c_right,
    const float* const* h_left, const float* const* h_right, float* dc,
    const CellGrads& grads, const ChildGrads& child,
    nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t nd = n * d;
  const size_t at = row0 * d;
  LPCE_PROFILE_SCOPE("nn.train.cell_bwd");
  if (!config_.use_lstm) {
    // h = r (.) tanh(c) + ...: d(tanh c) = dh (.) r, then c's tanh term
    // lands after the parent's contribution already in dc.
    float* d_tc = arena->AllocZeroed(nd);
    k::MulAccumulate(d_tc, dh, pre.r + at, nd);  // Mul(r, tanh c)
    k::TanhBackwardAccumulate(dc, d_tc, keep.tc, nd);  // Tanh
    // c = f (.) child_sum + ...: both children receive d(child_sum).
    k::Zero(child.dc_left, nd);
    k::MulAccumulate(child.dc_left, dc, pre.f + at, nd);  // Mul(f, child_sum)
    return;
  }
  // h = o (.) tanh(c).
  float* d_o = arena->AllocZeroed(nd);
  k::MulAccumulate(d_o, dh, keep.tc, nd);
  float* d_tc = arena->AllocZeroed(nd);
  k::MulAccumulate(d_tc, dh, keep.o, nd);
  k::TanhBackwardAccumulate(dc, d_tc, keep.tc, nd);  // Tanh(c)
  // c = i (.) g + f_l (.) c_l + f_r (.) c_r: every Add passes dc through.
  // Rows without a child keep zero gate gradients (fl/fr rows start zero).
  float* d_sf_right = grads.d_sf_right + at;
  float* d_sf_left = grads.d_sf_left + at;
  float* d_f = arena->Alloc(nd);
  for (const bool right : {true, false}) {
    const float* const* cc = right ? c_right : c_left;
    const float* f = right ? keep.fr : keep.fl;
    float* child_dc = right ? child.dc_right : child.dc_left;
    k::Zero(d_f, nd);
    k::Zero(child_dc, nd);
    for (size_t row = 0; row < n; ++row) {
      if (cc[row] == nullptr) continue;
      const size_t off = row * d;
      k::MulAccumulate(d_f + off, dc + off, cc[row], d);  // Mul(f_k, c_k)
      k::MulAccumulate(child_dc + off, dc + off, f + off, d);
    }
    float* d_sf = right ? d_sf_right : d_sf_left;
    k::Zero(d_sf, nd);
    k::SigmoidBackwardAccumulate(d_sf, d_f, f, nd);
  }
  float* d_i = arena->AllocZeroed(nd);
  k::MulAccumulate(d_i, dc, keep.g, nd);  // Mul(i, g)
  float* d_g = arena->AllocZeroed(nd);
  k::MulAccumulate(d_g, dc, keep.i, nd);
  float* d_sg = grads.d_sg + at;
  k::Zero(d_sg, nd);
  k::TanhBackwardAccumulate(d_sg, d_g, keep.g, nd);
  float* d_si = grads.d_si + at;
  k::Zero(d_si, nd);
  k::SigmoidBackwardAccumulate(d_si, d_i, keep.i, nd);
  float* d_so = grads.d_so + at;
  k::Zero(d_so, nd);
  k::SigmoidBackwardAccumulate(d_so, d_o, keep.o, nd);
  // The children's h: the forget-gate U product first (it runs first in
  // reverse), then the g, i, o gates' U products, through the child sum's
  // Add when both children have an h.
  float* t_ufr = arena->Alloc(nd);
  lstm_.uf().BackwardInput(d_sf_right, n, t_ufr);
  float* t_ufl = arena->Alloc(nd);
  lstm_.uf().BackwardInput(d_sf_left, n, t_ufl);
  float* t_ug = arena->Alloc(nd);
  lstm_.ug().BackwardInput(d_sg, n, t_ug);
  float* t_ui = arena->Alloc(nd);
  lstm_.ui().BackwardInput(d_si, n, t_ui);
  float* t_uo = arena->Alloc(nd);
  lstm_.uo().BackwardInput(d_so, n, t_uo);
  float* d_hs = arena->Alloc(d);
  k::Zero(child.dh_left, nd);
  k::Zero(child.dh_right, nd);
  for (size_t row = 0; row < n; ++row) {
    const size_t off = row * d;
    const bool has_l = h_left[row] != nullptr;
    const bool has_r = h_right[row] != nullptr;
    if (has_l && has_r) {
      k::Zero(d_hs, d);  // h_sum = Add(h_l, h_r)
      k::AddInPlace(d_hs, t_ug + off, d);
      k::AddInPlace(d_hs, t_ui + off, d);
      k::AddInPlace(d_hs, t_uo + off, d);
      k::AddInPlace(child.dh_left + off, t_ufl + off, d);
      k::AddInPlace(child.dh_left + off, d_hs, d);
      k::AddInPlace(child.dh_right + off, t_ufr + off, d);
      k::AddInPlace(child.dh_right + off, d_hs, d);
    } else if (has_l || has_r) {  // h_sum is the child's h itself
      float* dst = (has_l ? child.dh_left : child.dh_right) + off;
      k::AddInPlace(dst, (has_l ? t_ufl : t_ufr) + off, d);
      k::AddInPlace(dst, t_ug + off, d);
      k::AddInPlace(dst, t_ui + off, d);
      k::AddInPlace(dst, t_uo + off, d);
    }
  }
}

void TreeModel::RunCellPreBackward(const CellPre& pre, const CellKeep& keep,
                                   const float* dh, const float* dc,
                                   const float* extra_dx, size_t n,
                                   CellGrads* g, nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t nd = n * d;
  LPCE_PROFILE_SCOPE("nn.train.cell_pre_bwd");
  float* dx = arena->AllocZeroed(nd);
  float* tmp = arena->Alloc(nd);
  if (!config_.use_lstm) {
    float* one_minus_r = arena->Alloc(nd);
    k::OneMinus(pre.r, one_minus_r, nd);
    float* one_minus_f = arena->Alloc(nd);
    k::OneMinus(pre.f, one_minus_f, nd);
    // h = r (.) tanh(c) + (1 - r) (.) x. x's first gradient term is this
    // Mul's; the three W.x products add theirs below, in reverse order.
    float* d_omr = arena->AllocZeroed(nd);
    k::MulAccumulate(d_omr, dh, pre.x, nd);  // Mul(1 - r, x)
    k::MulAccumulate(dx, dh, one_minus_r, nd);
    float* d_r = arena->AllocZeroed(nd);
    k::AddScaledInPlace(d_r, d_omr, -1.0f, nd);  // Scale(r, -1)
    k::MulAccumulate(d_r, dh, keep.tc, nd);  // Mul(r, tanh c)
    // c = f (.) child_sum + (1 - f) (.) x~.
    float* d_omf = arena->AllocZeroed(nd);
    k::MulAccumulate(d_omf, dc, pre.xt, nd);  // Mul(1 - f, x~)
    g->d_xt = arena->AllocZeroed(nd);
    k::MulAccumulate(g->d_xt, dc, one_minus_f, nd);
    float* d_f = arena->AllocZeroed(nd);
    k::AddScaledInPlace(d_f, d_omf, -1.0f, nd);  // Scale(f, -1)
    k::MulAccumulate(d_f, dc, keep.cs, nd);  // Mul(f, child_sum)
    g->d_f1 = arena->AllocZeroed(nd);
    k::SigmoidBackwardAccumulate(g->d_f1, d_f, pre.f, nd);
    g->d_r1 = arena->AllocZeroed(nd);
    k::SigmoidBackwardAccumulate(g->d_r1, d_r, pre.r, nd);
    // x feeds W_x, W_f, W_r.
    for (const auto& [layer, grad] :
         {std::pair{&sru_.wx(), g->d_xt}, std::pair{&sru_.wf(), g->d_f1},
          std::pair{&sru_.wr(), g->d_r1}}) {
      layer->BackwardInput(grad, n, tmp);
      k::AddInPlace(dx, tmp, nd);
    }
  } else {
    // x feeds the right and left forget gates' W_f, then W_g, W_i, W_o. A
    // row without a child adds W_f's product of a zero gradient: +0.
    for (const auto& [layer, grad] :
         {std::pair{&lstm_.wf(), g->d_sf_right},
          std::pair{&lstm_.wf(), g->d_sf_left}, std::pair{&lstm_.wg(), g->d_sg},
          std::pair{&lstm_.wi(), g->d_si}, std::pair{&lstm_.wo(), g->d_so}}) {
      layer->BackwardInput(grad, n, tmp);
      k::AddInPlace(dx, tmp, nd);
    }
  }
  // Distillation's hint stage reads x through p_e last.
  if (extra_dx != nullptr) k::AddInPlace(dx, extra_dx, nd);
  // Embed: x = relu(relu(x_in W1 + b1) W2 + b2).
  g->d_e2 = arena->AllocZeroed(nd);
  k::ReluBackwardAccumulate(g->d_e2, dx, pre.x, nd);
  g->d_e1 = arena->Alloc(n * static_cast<size_t>(config_.embed_hidden));
  embed_.Backward(pre.h1, g->d_e2, n, g->d_e1, nullptr, arena);
}

void TreeModel::RunLevelBatch(LevelBatch* b, nn::InferArena* arena) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const CellPre pre = RunCellPre(b->x_in, b->n, arena);
  float* c = arena->Alloc(b->n * d);
  float* h = arena->Alloc(b->n * d);
  RunCellLevel(pre, 0, b->n, nullptr, b->c_left, b->c_right, b->h_left,
               b->h_right, c, h, arena);
  b->y = RunOutputHead(h, b->n, arena);
  b->c = c;
  b->h = h;
}

void TreeModel::FillInputRow(const qry::Query& query, const EstNode* node,
                             const nn::Matrix* cache, int cache_row,
                             double card_left, double card_right,
                             float* dst) const {
  if (cache != nullptr) {
    // Cached rows are the encoder's exact stores: no arithmetic, so cached
    // and encoded rows are bit-identical.
    LPCE_DCHECK(static_cast<size_t>(cache_row) < cache->rows());
    nn::kernels::Copy(cache->data() + static_cast<size_t>(cache_row) * cache->cols(),
                      dst, cache->cols());
  } else if (node->is_leaf()) {
    encoder_->EncodeScanInto(query, node->table_pos, dst);
  } else {
    encoder_->EncodeJoinInto(query, node->join_idx, dst);
  }
  if (config_.with_child_cards) {
    const size_t in_dim = static_cast<size_t>(input_dim());
    dst[in_dim - 2] = static_cast<float>(CardToY(card_left));
    dst[in_dim - 1] = static_cast<float>(CardToY(card_right));
  }
}

void TreeModel::InferManyImpl(
    const qry::Query* const* queries, const EstNode* const* roots,
    size_t num_trees, const nn::Matrix* const* caches,
    bool dynamic_child_cards,
    std::vector<std::vector<InferNodeOutput>>* outputs,
    std::vector<std::pair<qry::RelSet, double>>* sink,
    InferResult* root_result) const {
  LPCE_PROFILE_SCOPE("nn.infer.batch");
  static common::Counter* trees_total =
      common::MetricsRegistry::Global().counter("lpce.infer.trees_total");
  static common::Counter* nodes_total =
      common::MetricsRegistry::Global().counter("lpce.infer.nodes_total");
  static common::Counter* levels_total =
      common::MetricsRegistry::Global().counter("lpce.infer.levels_total");

  InferWorkspace& ws = TlsInferWorkspace();
  nn::InferArena& arena = nn::InferArena::ThreadLocal();
  arena.Reset();

  // ---- Flatten: pre-order DFS per tree, linking children by flat index. --
  ws.nodes.clear();
  ws.roots.clear();
  ws.post_order.clear();
  ws.tree_post_begin.clear();
  int max_depth = 0;
  for (size_t t = 0; t < num_trees; ++t) {
    ws.roots.push_back(static_cast<int>(ws.nodes.size()));
    ws.stack.clear();
    ws.stack.push_back({roots[t], 0, -1, false});
    while (!ws.stack.empty()) {
      const auto [est, depth, parent, is_right] = ws.stack.back();
      ws.stack.pop_back();
      const int idx = static_cast<int>(ws.nodes.size());
      ws.nodes.push_back({est, -1, -1, static_cast<int>(t), depth,
                          est->is_injected()});
      if (parent >= 0) {
        if (is_right) {
          ws.nodes[parent].right = idx;
        } else {
          ws.nodes[parent].left = idx;
        }
      }
      if (depth > max_depth) max_depth = depth;
      if (!est->is_injected()) {
        if (est->right != nullptr) {
          ws.stack.push_back({est->right.get(), depth + 1, idx, true});
        }
        if (est->left != nullptr) {
          ws.stack.push_back({est->left.get(), depth + 1, idx, false});
        }
      }
    }
  }
  const size_t total = ws.nodes.size();

  // Post-order (non-injected) per tree, for sink/output emission and the
  // feature-cache row indexing — both follow Forward's walk order.
  for (size_t t = 0; t < num_trees; ++t) {
    ws.tree_post_begin.push_back(ws.post_order.size());
    ws.post_stack.clear();
    ws.post_stack.emplace_back(ws.roots[t], 0);
    while (!ws.post_stack.empty()) {
      auto& [idx, stage] = ws.post_stack.back();
      const InferWorkspace::FlatNode& fn = ws.nodes[idx];
      if (fn.injected) {
        ws.post_stack.pop_back();
        continue;
      }
      if (stage == 0) {
        stage = 1;
        if (fn.left >= 0) ws.post_stack.emplace_back(fn.left, 0);
      } else if (stage == 1) {
        stage = 2;
        if (fn.right >= 0) ws.post_stack.emplace_back(fn.right, 0);
      } else {
        ws.post_order.push_back(idx);
        ws.post_stack.pop_back();
      }
    }
  }
  ws.tree_post_begin.push_back(ws.post_order.size());

  // ---- Group by depth (counting sort; order within a level is stable). ---
  ws.depth_begin.assign(static_cast<size_t>(max_depth) + 2, 0);
  for (const auto& fn : ws.nodes) ++ws.depth_begin[fn.depth + 1];
  for (size_t dpt = 1; dpt < ws.depth_begin.size(); ++dpt) {
    ws.depth_begin[dpt] += ws.depth_begin[dpt - 1];
  }
  ws.by_depth.resize(total);
  {
    // Reuse `rows` as the running cursor per depth.
    ws.rows.assign(static_cast<size_t>(max_depth) + 1, 0);
    for (size_t i = 0; i < total; ++i) {
      const int dpt = ws.nodes[i].depth;
      ws.by_depth[ws.depth_begin[dpt] + ws.rows[dpt]++] = static_cast<int>(i);
    }
  }

  // ---- Per-node result slots; injected leaves are filled directly. -------
  ws.c_of.assign(total, nullptr);
  ws.h_of.assign(total, nullptr);
  ws.card_of.assign(total, 0.0);
  ws.y_of.assign(total, 0.0f);
  for (size_t i = 0; i < total; ++i) {
    if (ws.nodes[i].injected) {
      ws.c_of[i] = ws.nodes[i].node->injected_c->data();
      ws.card_of[i] = ws.nodes[i].node->true_card;
    }
  }

  // Feature-cache cursors: caches are indexed by post-order row, so map each
  // flat node to its post-order position up front.
  // (Reuse y_of as float storage is not possible for ints; use a dedicated
  // pass over post_order instead when filling features below.)
  thread_local std::vector<int> cache_row_of;
  cache_row_of.assign(total, -1);
  if (caches != nullptr) {
    for (size_t t = 0; t < num_trees; ++t) {
      if (caches[t] == nullptr) continue;
      int row = 0;
      for (size_t p = ws.tree_post_begin[t]; p < ws.tree_post_begin[t + 1]; ++p) {
        cache_row_of[ws.post_order[p]] = row++;
      }
    }
  }

  const size_t in_dim = static_cast<size_t>(input_dim());
  const size_t d = static_cast<size_t>(config_.dim);
  size_t levels_run = 0;

  // Fills feature rows for `n` flat indices into `dst_base`. The dynamic
  // branch substitutes just-computed child cards (LPCE-R-Single), which is
  // only legal once the children's level has run.
  auto fill_features = [&](const int* row_idx, size_t n, float* dst_base) {
    LPCE_PROFILE_SCOPE("lpce.infer.features");
    for (size_t r = 0; r < n; ++r) {
      const int flat = row_idx[r];
      const InferWorkspace::FlatNode& fn = ws.nodes[flat];
      const EstNode* node = fn.node;
      const int crow = cache_row_of[flat];
      double card_left = std::max(0.0, node->child_card_left);
      double card_right = std::max(0.0, node->child_card_right);
      if (config_.with_child_cards && dynamic_child_cards && !node->is_leaf()) {
        // Children live one level deeper: already computed.
        if (node->left->true_card < 0.0) {
          card_left = std::max(0.0, ws.card_of[fn.left]);
        }
        if (node->right->true_card < 0.0) {
          card_right = std::max(0.0, ws.card_of[fn.right]);
        }
      }
      FillInputRow(*queries[fn.tree], node,
                   crow >= 0 ? caches[fn.tree] : nullptr, crow, card_left,
                   card_right, dst_base + r * in_dim);
    }
  };

  if (!(config_.with_child_cards && dynamic_child_cards)) {
    // ---- Hoisted path (static features): embed, every W.x product, and the
    // output head run ONCE over all rows of all levels (and all trees), so
    // each weight matrix streams through cache once per batch instead of
    // once per level — at 1-2 rows per level of a left-deep plan the level
    // loop is weight-bandwidth-bound, not FLOP-bound. Only the
    // child-dependent cell work runs per level. Bit-identical to the
    // per-level path: Gemm row partitioning is bitwise-invariant (pinned by
    // nn_kernels_test) and every elementwise kernel is value-deterministic
    // per element.
    ws.comp_rows.clear();
    ws.comp_begin.clear();
    for (int depth = max_depth; depth >= 0; --depth) {
      const size_t begin = ws.comp_rows.size();
      for (size_t s = ws.depth_begin[depth]; s < ws.depth_begin[depth + 1];
           ++s) {
        const int idx = ws.by_depth[s];
        if (!ws.nodes[idx].injected) ws.comp_rows.push_back(idx);
      }
      if (ws.comp_rows.size() > begin) ws.comp_begin.push_back(begin);
    }
    ws.comp_begin.push_back(ws.comp_rows.size());
    const size_t num_rows = ws.comp_rows.size();
    levels_run = ws.comp_begin.size() - 1;

    float* x_in = arena.Alloc(num_rows * in_dim);
    fill_features(ws.comp_rows.data(), num_rows, x_in);
    const CellPre pre = RunCellPre(x_in, num_rows, &arena);
    float* c_all = arena.Alloc(num_rows * d);
    float* h_all = arena.Alloc(num_rows * d);
    for (size_t lvl = 0; lvl + 1 < ws.comp_begin.size(); ++lvl) {
      const size_t row0 = ws.comp_begin[lvl];
      const size_t n = ws.comp_begin[lvl + 1] - row0;
      ws.cl.clear();
      ws.cr.clear();
      ws.hl.clear();
      ws.hr.clear();
      for (size_t r = 0; r < n; ++r) {
        const InferWorkspace::FlatNode& fn = ws.nodes[ws.comp_rows[row0 + r]];
        ws.cl.push_back(fn.left >= 0 ? ws.c_of[fn.left] : nullptr);
        ws.cr.push_back(fn.right >= 0 ? ws.c_of[fn.right] : nullptr);
        ws.hl.push_back(fn.left >= 0 ? ws.h_of[fn.left] : nullptr);
        ws.hr.push_back(fn.right >= 0 ? ws.h_of[fn.right] : nullptr);
      }
      RunCellLevel(pre, row0, n, nullptr, ws.cl.data(), ws.cr.data(),
                   ws.hl.data(), ws.hr.data(), c_all + row0 * d,
                   h_all + row0 * d, &arena);
      for (size_t r = 0; r < n; ++r) {
        const int idx = ws.comp_rows[row0 + r];
        ws.c_of[idx] = c_all + (row0 + r) * d;
        ws.h_of[idx] = h_all + (row0 + r) * d;
      }
    }
    const float* y_all = RunOutputHead(h_all, num_rows, &arena);
    for (size_t r = 0; r < num_rows; ++r) {
      const int idx = ws.comp_rows[r];
      ws.y_of[idx] = y_all[r];
      ws.card_of[idx] = YToCard(static_cast<double>(y_all[r]));
    }
  } else {
    // ---- Dynamic-feature level loop: deepest first, so every child's card
    // is already refined when its parent's features are built. ----
    for (int depth = max_depth; depth >= 0; --depth) {
      ws.rows.clear();
      for (size_t s = ws.depth_begin[depth]; s < ws.depth_begin[depth + 1];
           ++s) {
        const int idx = ws.by_depth[s];
        if (!ws.nodes[idx].injected) ws.rows.push_back(idx);
      }
      if (ws.rows.empty()) continue;
      ++levels_run;
      const size_t n = ws.rows.size();

      LevelBatch batch;
      batch.n = n;
      batch.x_in = arena.Alloc(n * in_dim);
      fill_features(ws.rows.data(), n, batch.x_in);
      ws.cl.clear();
      ws.cr.clear();
      ws.hl.clear();
      ws.hr.clear();
      for (size_t r = 0; r < n; ++r) {
        const InferWorkspace::FlatNode& fn = ws.nodes[ws.rows[r]];
        ws.cl.push_back(fn.left >= 0 ? ws.c_of[fn.left] : nullptr);
        ws.cr.push_back(fn.right >= 0 ? ws.c_of[fn.right] : nullptr);
        ws.hl.push_back(fn.left >= 0 ? ws.h_of[fn.left] : nullptr);
        ws.hr.push_back(fn.right >= 0 ? ws.h_of[fn.right] : nullptr);
      }
      batch.c_left = ws.cl.data();
      batch.c_right = ws.cr.data();
      batch.h_left = ws.hl.data();
      batch.h_right = ws.hr.data();

      RunLevelBatch(&batch, &arena);

      for (size_t r = 0; r < n; ++r) {
        const int idx = ws.rows[r];
        ws.c_of[idx] = batch.c + r * d;
        ws.h_of[idx] = batch.h + r * d;
        ws.y_of[idx] = batch.y[r];
        ws.card_of[idx] = YToCard(static_cast<double>(batch.y[r]));
      }
    }
  }

  trees_total->Increment(num_trees);
  nodes_total->Increment(total);
  levels_total->Increment(levels_run);

  // ---- Emit results in Forward's post-order. -----------------------------
  if (outputs != nullptr) {
    outputs->resize(num_trees);
    for (size_t t = 0; t < num_trees; ++t) {
      auto& out = (*outputs)[t];
      out.clear();
      for (size_t p = ws.tree_post_begin[t]; p < ws.tree_post_begin[t + 1]; ++p) {
        const int idx = ws.post_order[p];
        out.push_back({ws.nodes[idx].node, ws.y_of[idx], ws.card_of[idx]});
      }
    }
  }
  if (sink != nullptr) {
    for (size_t t = 0; t < num_trees; ++t) {
      for (size_t p = ws.tree_post_begin[t]; p < ws.tree_post_begin[t + 1]; ++p) {
        const int idx = ws.post_order[p];
        sink->emplace_back(ws.nodes[idx].node->rels, ws.card_of[idx]);
      }
    }
  }
  if (root_result != nullptr) {
    const int root_idx = ws.roots.empty() ? -1 : ws.roots[0];
    LPCE_CHECK(root_idx >= 0);
    root_result->root_card = ws.card_of[root_idx];
    root_result->root_c = ws.c_of[root_idx];
    root_result->root_h = ws.h_of[root_idx];
  }
}

TreeModel::InferResult TreeModel::Infer(
    const qry::Query& query, const EstNode* root, bool dynamic_child_cards,
    std::vector<std::pair<qry::RelSet, double>>* sink,
    const nn::Matrix* feature_cache) const {
  const qry::Query* q = &query;
  const nn::Matrix* const cache_arr[1] = {feature_cache};
  InferResult result;
  InferManyImpl(&q, &root, 1, feature_cache != nullptr ? cache_arr : nullptr,
                dynamic_child_cards, nullptr, sink, &result);
  return result;
}

void TreeModel::InferTrees(
    const std::vector<std::pair<const qry::Query*, const EstNode*>>& trees,
    std::vector<std::vector<InferNodeOutput>>* outputs,
    bool dynamic_child_cards,
    const std::vector<const nn::Matrix*>* caches) const {
  if (trees.empty()) {
    if (outputs != nullptr) outputs->clear();
    return;
  }
  thread_local std::vector<const qry::Query*> queries;
  thread_local std::vector<const EstNode*> roots;
  queries.clear();
  roots.clear();
  for (const auto& [q, r] : trees) {
    queries.push_back(q);
    roots.push_back(r);
  }
  LPCE_CHECK(caches == nullptr || caches->size() == trees.size());
  InferManyImpl(queries.data(), roots.data(), trees.size(),
                caches != nullptr ? caches->data() : nullptr,
                dynamic_child_cards, outputs, nullptr, nullptr);
}

void TreeModel::RunSubsetPass(const qry::Query& query, qry::RelSet leaves,
                              const std::vector<SubsetStep>& steps,
                              const std::vector<size_t>& level_end,
                              RawState* states) const {
  LPCE_CHECK_MSG(!config_.with_child_cards,
                 "subset passes need a content-style model");
  LPCE_PROFILE_SCOPE("nn.infer.subset_pass");
  nn::InferArena& arena = nn::InferArena::ThreadLocal();
  InferWorkspace& ws = TlsInferWorkspace();
  const size_t in_dim = static_cast<size_t>(input_dim());
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t num_leaves = static_cast<size_t>(qry::PopCount(leaves));

  // CellPre rows: the leaves in position order, then each distinct join
  // edge in first-use order. A join row's features depend only on its edge.
  constexpr uint32_t kUnused = ~uint32_t{0};
  ws.edge_row.assign(query.joins.size(), kUnused);
  ws.edges.clear();
  for (const SubsetStep& step : steps) {
    uint32_t& row = ws.edge_row[static_cast<size_t>(step.join_idx)];
    if (row != kUnused) continue;
    row = static_cast<uint32_t>(num_leaves + ws.edges.size());
    ws.edges.push_back(step.join_idx);
  }
  const size_t pre_rows = num_leaves + ws.edges.size();
  float* x_in = arena.Alloc(pre_rows * in_dim);
  {
    size_t row = 0;
    for (qry::RelSet rest = leaves; rest != 0; rest &= rest - 1, ++row) {
      encoder_->EncodeScanInto(query, __builtin_ctz(rest), x_in + row * in_dim);
    }
    for (int join_idx : ws.edges) {
      encoder_->EncodeJoinInto(query, join_idx, x_in + row * in_dim);
      ++row;
    }
  }
  const CellPre pre = RunCellPre(x_in, pre_rows, &arena);

  // States: the leaves, then every step in order, so the output head runs
  // once over all of h.
  const size_t num_states = num_leaves + steps.size();
  float* c_all = arena.Alloc(num_states * d);
  float* h_all = arena.Alloc(num_states * d);
  if (num_leaves > 0) {
    ws.cl.assign(num_leaves, nullptr);
    RunCellLevel(pre, 0, num_leaves, nullptr, ws.cl.data(), ws.cl.data(),
                 ws.cl.data(), ws.cl.data(), c_all, h_all, &arena);
  }
  {
    size_t row = 0;
    for (qry::RelSet rest = leaves; rest != 0; rest &= rest - 1, ++row) {
      states[rest & (~rest + 1)] = {c_all + row * d, h_all + row * d, 0.0};
    }
  }
  size_t begin = 0;
  for (size_t end : level_end) {
    const size_t n = end - begin;
    if (n == 0) continue;
    ws.pre_rows.clear();
    ws.cl.clear();
    ws.cr.clear();
    ws.hl.clear();
    ws.hr.clear();
    for (size_t i = begin; i < end; ++i) {
      const SubsetStep& step = steps[i];
      const RawState& left = states[step.left];
      const RawState& right = states[step.right];
      ws.pre_rows.push_back(ws.edge_row[static_cast<size_t>(step.join_idx)]);
      ws.cl.push_back(left.c);
      ws.cr.push_back(right.c);
      ws.hl.push_back(left.h);
      ws.hr.push_back(right.h);
    }
    const size_t row0 = num_leaves + begin;
    RunCellLevel(pre, 0, n, ws.pre_rows.data(), ws.cl.data(), ws.cr.data(),
                 ws.hl.data(), ws.hr.data(), c_all + row0 * d,
                 h_all + row0 * d, &arena);
    for (size_t i = begin; i < end; ++i) {
      const size_t row = num_leaves + i;
      states[steps[i].rels] = {c_all + row * d, h_all + row * d, 0.0};
    }
    begin = end;
  }

  const float* y = RunOutputHead(h_all, num_states, &arena);
  {
    size_t row = 0;
    for (qry::RelSet rest = leaves; rest != 0; rest &= rest - 1, ++row) {
      states[rest & (~rest + 1)].card = YToCard(static_cast<double>(y[row]));
    }
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    states[steps[i].rels].card =
        YToCard(static_cast<double>(y[num_leaves + i]));
  }
}

namespace {

/// The node- or query-wise loss (Eq. 2/3) of one tree's outputs. The scalar
/// Sub/Add/Scale steps run through the shared kernels (an inline
/// accumulation loop could be reassociated under -ffast-math), so the
/// validation loss is bit-equal to the training pass's (LevelNodeLoss).
float TreeLossFast(const TreeModel& model,
                   const std::vector<TreeModel::InferNodeOutput>& outputs,
                   bool node_wise, bool* has_loss) {
  namespace k = nn::kernels;
  float loss = 0.0f;
  int terms = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!node_wise && i + 1 != outputs.size()) continue;  // root only
    const TreeModel::InferNodeOutput& out = outputs[i];
    if (out.node->true_card < 0.0) continue;
    float diff = out.y;
    const float target = static_cast<float>(model.CardToY(out.node->true_card));
    k::AddScaledInPlace(&diff, &target, -1.0f, 1);  // nn::Sub's kernel
    float term = std::fabs(diff);
    if (terms == 0) {
      loss = term;
    } else {
      k::AddInPlace(&loss, &term, 1);
    }
    ++terms;
  }
  *has_loss = terms > 0;
  if (terms > 1) k::ScaleInPlace(&loss, 1.0f / static_cast<float>(terms), 1);
  return loss;
}

/// One feature cache per training tree, built once and reused every epoch
/// (and by both models of a distillation double-forward) instead of
/// re-running the encoder per node per pass.
std::vector<nn::Matrix> BuildFeatureCaches(
    const TreeModel& model, const std::vector<wk::LabeledQuery>& train,
    const std::vector<std::unique_ptr<EstNode>>& trees) {
  LPCE_PROFILE_SCOPE("train.feature_cache");
  std::vector<nn::Matrix> caches;
  caches.reserve(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    caches.push_back(model.BuildFeatureCache(train[i].query, trees[i].get()));
  }
  return caches;
}

}  // namespace

// ---------------------------------------------------------------------------
// Training on level kernels.
//
// A mini-batch of trees runs as one forward and one backward pass, level by
// level. The trained parameters are bit-identical to running each tree alone
// through a reverse-mode pass (the tests' taped oracle):
//  - activation gradients come from the backward level kernels above, which
//    sum an activation's gradient terms in the per-tree pass's order;
//  - each parameter gradient adds one rounded per-row product
//    (nn::Linear::AccumulateGrads) in the order per-tree passes would add
//    them. A reverse-mode pass runs ops in reverse post-order of a DFS from
//    the loss, and the loss chains its terms in post-order, so the nodes
//    with a loss term ("heads") run root side first, and a head's gradient
//    reaches the unlabelled nodes below it (its "region") in the middle of
//    the head's own cell: after the products that read the children's state
//    or run after x's first use, before those that x's first use precedes.
//    Per tree:
//      output head (and SRU W_r): heads in reverse post-order;
//      "pre" order, per head, the head, then its region in right-first
//        pre-order: SRU W_x; LSTM W_i, W_g, W_f, all four U (both forget
//        gates of a row: right child first);
//      "post" order, per head, its region in right-first post-order, then
//        the head: SRU W_f; LSTM W_o; embed.
//    Trees follow each other in sample order.
// See DESIGN.md "Training on level kernels".
// ---------------------------------------------------------------------------

namespace internal {

/// Trees per level pass. A mini-batch runs as consecutive passes over this
/// many of its trees; the parameter gradients still accumulate in sample
/// order, so the split is invisible in the bits. It bounds the pass's
/// workspace (a dim-96 teacher keeps ~15 KB of activations and gradients
/// per node) while leaving each product ~90 rows.
constexpr size_t kTreesPerPass = 8;

struct LevelPass {
  enum class Heads { kNodeWise, kQueryWise, kAll };

  explicit LevelPass(const TreeModel* m) : model(m) {}

  /// Flattens `count` samples; the pass's buffers are valid until the next
  /// Build.
  void Build(const LevelTrainer::Sample* batch, size_t count, Heads heads);
  void Forward();
  /// Needs `dlogit` (output_head) or `dh` set; `extra_dx` (may be null) is
  /// x's last gradient term.
  void Backward(bool output_head, const float* extra_dx);
  /// Adds the model's parameter gradients, in the per-tree passes' order.
  void Accumulate(bool output_head) const;

  size_t num_rows() const { return rows.size(); }
  int row_of(int flat) const { return nodes[flat].row; }

  const TreeModel* model;
  nn::InferArena arena;
  const LevelTrainer::Sample* samples = nullptr;
  size_t num_samples = 0;

  struct Node {
    const EstNode* est = nullptr;
    int left = -1;
    int right = -1;
    int sample = 0;
    int depth = 0;
    int row = -1;        // compute row; -1 for the injected leaf
    int cache_row = -1;  // feature-cache row (post-order in the sample tree)
    bool injected = false;
    bool head = false;   // has a term in the loss
  };
  std::vector<Node> nodes;
  std::vector<int> roots;         // flat root per sample
  std::vector<int> post;          // per sample, Forward's output order
  std::vector<size_t> post_begin;
  std::vector<int> rows;          // flat node per compute row
  std::vector<size_t> level_begin;  // compute-row bounds, deepest level first
  // Compute rows in the per-tree passes' orders (see above). order_gate
  // indexes the LSTM's stacked forget gates: row (right child) or
  // num_rows() + row (left child).
  std::vector<int> order_head;
  std::vector<int> order_pre;
  std::vector<int> order_post;
  std::vector<int> order_gate;

  // Forward activations, one row per compute row (arena-owned until the
  // next Build).
  float* x_in = nullptr;
  TreeModel::CellPre pre;
  float* c = nullptr;
  float* h = nullptr;
  TreeModel::CellKeep keep;
  TreeModel::OutputActs out;
  float* y = nullptr;
  // Backward. The loss sets dlogit (output head in the loss) or dh, the
  // loss's own term of each head's d(h).
  float* dlogit = nullptr;  // [rows]
  float* dh = nullptr;      // [rows x dim]
  float* d_o1 = nullptr;
  float* dc = nullptr;      // [rows x dim]
  float* d_injected = nullptr;  // [samples x dim]
  TreeModel::CellGrads grads;
  // LSTM: the forget gates' U-product inputs, stacked like their gradients
  // (the child's h, or zero for an injected child), and x twice over.
  float* gate_h = nullptr;  // [2 rows x dim]
  float* gate_x = nullptr;  // [2 rows x dim]

 private:
  struct StackEntry {
    const EstNode* est;
    int parent;
    bool is_right;
    int depth;
  };
  std::vector<StackEntry> dfs;
  std::vector<std::pair<int, int>> post_stack;
  std::vector<int> stack;
  std::vector<int> scratch;
  std::vector<const float*> c_of, h_of;
  std::vector<const float*> cl, cr, hl, hr;

  /// The children's c and h of the compute rows [row0, row0 + cnt) (null:
  /// no such child, or an injected child's h), into cl, cr, hl, hr.
  void GatherChildren(size_t row0, size_t cnt);

  /// A child below a head that the head's loss term reaches first.
  bool InRegion(int flat) const {
    return flat >= 0 && !nodes[flat].injected && !nodes[flat].head;
  }
};

namespace {

size_t CountNodes(const EstNode* node) {
  if (node == nullptr) return 0;
  return 1 + CountNodes(node->left.get()) + CountNodes(node->right.get());
}

}  // namespace

void LevelPass::Build(const LevelTrainer::Sample* batch, size_t count,
                      Heads heads) {
  samples = batch;
  num_samples = count;
  arena.Reset();
  dlogit = nullptr;
  dh = nullptr;
  nodes.clear();
  roots.clear();
  post.clear();
  post_begin.clear();
  rows.clear();
  level_begin.clear();
  order_head.clear();
  order_pre.clear();
  order_post.clear();
  order_gate.clear();
  int max_depth = 0;
  for (size_t s = 0; s < count; ++s) {
    const LevelTrainer::Sample& sample = batch[s];
    const int root = static_cast<int>(nodes.size());
    roots.push_back(root);
    // Pre-order, parents before children.
    dfs.clear();
    dfs.push_back({sample.root, -1, false, 0});
    while (!dfs.empty()) {
      const StackEntry e = dfs.back();
      dfs.pop_back();
      const int idx = static_cast<int>(nodes.size());
      Node node;
      node.est = e.est;
      node.sample = static_cast<int>(s);
      node.depth = e.depth;
      nodes.push_back(node);
      if (e.parent >= 0) {
        (e.is_right ? nodes[e.parent].right : nodes[e.parent].left) = idx;
      }
      max_depth = std::max(max_depth, e.depth);
      LPCE_CHECK_MSG(!e.est->is_injected(),
                     "training trees carry no injected nodes");
      if (e.est == sample.injected_at) {
        nodes[idx].injected = true;
        continue;
      }
      if (e.est->right != nullptr) {
        dfs.push_back({e.est->right.get(), idx, true, e.depth + 1});
      }
      if (e.est->left != nullptr) {
        dfs.push_back({e.est->left.get(), idx, false, e.depth + 1});
      }
    }
    // Post-order: Forward's output order and the feature-cache rows (the
    // cache covers the injected subtree too).
    post_begin.push_back(post.size());
    int cache_row = 0;
    post_stack.clear();
    post_stack.emplace_back(root, 0);
    while (!post_stack.empty()) {
      auto& [idx, stage] = post_stack.back();
      Node& node = nodes[idx];
      if (node.injected) {
        cache_row += static_cast<int>(CountNodes(node.est));
        post_stack.pop_back();
      } else if (stage == 0) {
        stage = 1;
        if (node.left >= 0) post_stack.emplace_back(node.left, 0);
      } else if (stage == 1) {
        stage = 2;
        if (node.right >= 0) post_stack.emplace_back(node.right, 0);
      } else {
        node.cache_row = cache_row++;
        post.push_back(idx);
        post_stack.pop_back();
      }
    }
    for (size_t p = post_begin.back(); p < post.size(); ++p) {
      Node& node = nodes[post[p]];
      switch (heads) {
        case Heads::kNodeWise:
          node.head = node.est->true_card >= 0.0;
          break;
        case Heads::kQueryWise:
          node.head = post[p] == root && node.est->true_card >= 0.0;
          break;
        case Heads::kAll:
          node.head = true;
          break;
      }
    }
  }
  post_begin.push_back(post.size());

  // Compute rows, grouped by depth, deepest level first.
  for (int depth = max_depth; depth >= 0; --depth) {
    const size_t begin = rows.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
      Node& node = nodes[i];
      if (node.depth != depth || node.injected) continue;
      node.row = static_cast<int>(rows.size());
      rows.push_back(static_cast<int>(i));
    }
    if (rows.size() > begin) level_begin.push_back(begin);
  }
  level_begin.push_back(rows.size());

  // The per-tree passes' parameter-gradient orders.
  for (size_t s = 0; s < count; ++s) {
    stack.clear();
    stack.push_back(roots[s]);
    while (!stack.empty()) {  // reverse post-order: node, right, left
      const int v = stack.back();
      stack.pop_back();
      const Node& node = nodes[v];
      if (node.injected) continue;
      if (node.left >= 0) stack.push_back(node.left);
      if (node.right >= 0) stack.push_back(node.right);
      if (!node.head) continue;
      order_head.push_back(node.row);
      // "pre": the head, then its region in right-first pre-order.
      scratch.clear();
      scratch.push_back(v);
      while (!scratch.empty()) {
        const int u = scratch.back();
        scratch.pop_back();
        order_pre.push_back(nodes[u].row);
        if (InRegion(nodes[u].left)) scratch.push_back(nodes[u].left);
        if (InRegion(nodes[u].right)) scratch.push_back(nodes[u].right);
      }
      // "post": the region in right-first post-order, then the head — the
      // reverse of a left-first pre-order.
      const size_t begin = order_post.size();
      scratch.push_back(v);
      while (!scratch.empty()) {
        const int u = scratch.back();
        scratch.pop_back();
        order_post.push_back(nodes[u].row);
        if (InRegion(nodes[u].right)) scratch.push_back(nodes[u].right);
        if (InRegion(nodes[u].left)) scratch.push_back(nodes[u].left);
      }
      std::reverse(order_post.begin() + static_cast<long>(begin),
                   order_post.end());
    }
  }
  for (const int row : order_pre) {
    const Node& node = nodes[rows[static_cast<size_t>(row)]];
    if (node.right >= 0) order_gate.push_back(row);
    if (node.left >= 0) order_gate.push_back(static_cast<int>(rows.size()) + row);
  }
}

void LevelPass::GatherChildren(size_t row0, size_t cnt) {
  cl.clear();
  cr.clear();
  hl.clear();
  hr.clear();
  for (size_t r = row0; r < row0 + cnt; ++r) {
    const Node& node = nodes[rows[r]];
    cl.push_back(node.left >= 0 ? c_of[node.left] : nullptr);
    cr.push_back(node.right >= 0 ? c_of[node.right] : nullptr);
    hl.push_back(node.left >= 0 ? h_of[node.left] : nullptr);
    hr.push_back(node.right >= 0 ? h_of[node.right] : nullptr);
  }
}

void LevelPass::Forward() {
  LPCE_PROFILE_SCOPE("nn.train.forward");
  namespace k = nn::kernels;
  const TreeModelConfig& config = model->config();
  const size_t n = rows.size();
  const size_t in_dim = static_cast<size_t>(model->input_dim());
  const size_t d = static_cast<size_t>(config.dim);
  x_in = arena.Alloc(n * in_dim);
  for (size_t r = 0; r < n; ++r) {
    const Node& node = nodes[rows[r]];
    const LevelTrainer::Sample& sample = samples[node.sample];
    model->FillInputRow(*sample.query, node.est, sample.feature_cache,
                        node.cache_row,
                        std::max(0.0, node.est->child_card_left),
                        std::max(0.0, node.est->child_card_right),
                        x_in + r * in_dim);
  }
  pre = model->RunCellPre(x_in, n, &arena);
  c = arena.Alloc(n * d);
  h = arena.Alloc(n * d);
  keep = TreeModel::CellKeep{};
  keep.tc = arena.Alloc(n * d);
  if (config.use_lstm) {
    keep.i = arena.Alloc(n * d);
    keep.o = arena.Alloc(n * d);
    keep.g = arena.Alloc(n * d);
    keep.fl = arena.AllocZeroed(n * d);
    keep.fr = arena.AllocZeroed(n * d);
    keep.hs = arena.Alloc(n * d);
  } else {
    keep.cs = arena.Alloc(n * d);
  }
  c_of.assign(nodes.size(), nullptr);
  h_of.assign(nodes.size(), nullptr);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].injected) c_of[i] = samples[nodes[i].sample].injected_c;
  }
  auto offset = [d](float* p, size_t row0) {
    return p != nullptr ? p + row0 * d : nullptr;
  };
  for (size_t lvl = 0; lvl + 1 < level_begin.size(); ++lvl) {
    const size_t row0 = level_begin[lvl];
    const size_t cnt = level_begin[lvl + 1] - row0;
    GatherChildren(row0, cnt);
    const TreeModel::CellKeep level_keep{
        offset(keep.cs, row0), offset(keep.tc, row0), offset(keep.i, row0),
        offset(keep.o, row0),  offset(keep.g, row0),  offset(keep.fl, row0),
        offset(keep.fr, row0), offset(keep.hs, row0)};
    model->RunCellLevel(pre, row0, cnt, nullptr, cl.data(), cr.data(),
                        hl.data(), hr.data(), c + row0 * d, h + row0 * d,
                        &arena, &level_keep);
    for (size_t r = row0; r < row0 + cnt; ++r) {
      c_of[rows[r]] = c + r * d;
      h_of[rows[r]] = h + r * d;
    }
  }
  y = model->RunOutputHead(h, n, &arena, &out);
}

void LevelPass::Backward(bool output_head, const float* extra_dx) {
  LPCE_PROFILE_SCOPE("nn.train.backward");
  namespace k = nn::kernels;
  const size_t n = rows.size();
  const size_t d = static_cast<size_t>(model->config().dim);
  const bool lstm = model->config().use_lstm;
  if (output_head) {
    d_o1 = arena.Alloc(n * static_cast<size_t>(model->config().out_hidden));
    dh = arena.Alloc(n * d);
    model->RunOutputHeadBackward(dlogit, out.o1, n, d_o1, dh, &arena);
  }
  LPCE_CHECK(dh != nullptr);
  dc = arena.AllocZeroed(n * d);
  d_injected = arena.AllocZeroed(num_samples * d);
  grads = TreeModel::CellGrads{};
  // SRU: h feeds only the loss, so d(h) is the loss's term. LSTM: a child's
  // h also feeds its parent, whose terms come first; a head then adds the
  // loss's term at its own level.
  float* dh_all = dh;
  if (lstm) {
    dh_all = arena.AllocZeroed(n * d);
    grads.d_so = arena.Alloc(n * d);
    grads.d_si = arena.Alloc(n * d);
    grads.d_sg = arena.Alloc(n * d);
    // One buffer, right children's rows above left children's, so both
    // forget gates accumulate as one row list (order_gate).
    grads.d_sf_right = arena.Alloc(2 * n * d);
    grads.d_sf_left = grads.d_sf_right + n * d;
  }
  TreeModel::ChildGrads child;
  // Root level first: a node's c gradient starts with its parent's
  // contribution.
  for (size_t lvl = level_begin.size() - 1; lvl-- > 0;) {
    const size_t row0 = level_begin[lvl];
    const size_t cnt = level_begin[lvl + 1] - row0;
    child.dc_left = arena.Alloc(cnt * d);
    child.dc_right = lstm ? arena.Alloc(cnt * d) : child.dc_left;
    if (lstm) {
      child.dh_left = arena.Alloc(cnt * d);
      child.dh_right = arena.Alloc(cnt * d);
      for (size_t r = row0; r < row0 + cnt; ++r) {
        if (nodes[rows[r]].head) {
          k::AddInPlace(dh_all + r * d, dh + r * d, d);
        }
      }
    }
    GatherChildren(row0, cnt);
    const TreeModel::CellKeep level_keep{
        nullptr,
        keep.tc + row0 * d,
        lstm ? keep.i + row0 * d : nullptr,
        lstm ? keep.o + row0 * d : nullptr,
        lstm ? keep.g + row0 * d : nullptr,
        lstm ? keep.fl + row0 * d : nullptr,
        lstm ? keep.fr + row0 * d : nullptr,
        nullptr};
    model->RunCellLevelBackward(pre, level_keep, row0, cnt, dh_all + row0 * d,
                                cl.data(), cr.data(), hl.data(), hr.data(),
                                dc + row0 * d, grads, child, &arena);
    for (size_t i = 0; i < cnt; ++i) {
      const Node& node = nodes[rows[row0 + i]];
      for (const bool right : {false, true}) {
        const int flat = right ? node.right : node.left;
        if (flat < 0) continue;
        const Node& ch = nodes[flat];
        const size_t from = i * d;
        if (ch.injected) {
          k::Copy((right ? child.dc_right : child.dc_left) + from,
                  d_injected + static_cast<size_t>(ch.sample) * d, d);
          continue;
        }
        const size_t to = static_cast<size_t>(ch.row) * d;
        k::Copy((right ? child.dc_right : child.dc_left) + from, dc + to, d);
        if (lstm) {
          k::Copy((right ? child.dh_right : child.dh_left) + from,
                  dh_all + to, d);
        }
      }
    }
  }
  model->RunCellPreBackward(pre, keep, dh_all, dc, extra_dx, n, &grads,
                            &arena);
  if (lstm) {
    // The forget gates' U products read the child's h (zero for an
    // injected child) and their W products x, stacked like their gradients.
    gate_h = arena.AllocZeroed(2 * n * d);
    gate_x = arena.Alloc(2 * n * d);
    k::Copy(pre.x, gate_x, n * d);
    k::Copy(pre.x, gate_x + n * d, n * d);
    for (size_t r = 0; r < n; ++r) {
      const Node& node = nodes[rows[r]];
      if (node.right >= 0 && h_of[node.right] != nullptr) {
        k::Copy(h_of[node.right], gate_h + r * d, d);
      }
      if (node.left >= 0 && h_of[node.left] != nullptr) {
        k::Copy(h_of[node.left], gate_h + (n + r) * d, d);
      }
    }
  }
}

void LevelPass::Accumulate(bool output_head) const {
  LPCE_PROFILE_SCOPE("nn.train.param_grads");
  auto acc = [](const nn::Linear& l, const float* a, const float* g,
                const std::vector<int>& order) {
    l.AccumulateGrads(a, g, order.data(), order.size());
  };
  if (output_head) {
    model->output_.AccumulateGrads(h, out.o1, dlogit, d_o1, order_head.data(),
                                   order_head.size());
  }
  if (!model->config().use_lstm) {
    const nn::TreeSruCell& sru = model->sru_;
    acc(sru.wr(), pre.x, grads.d_r1, order_head);
    acc(sru.wx(), pre.x, grads.d_xt, order_pre);
    acc(sru.wf(), pre.x, grads.d_f1, order_post);
  } else {
    const nn::TreeLstmCell& lstm = model->lstm_;
    acc(lstm.wi(), pre.x, grads.d_si, order_pre);
    acc(lstm.ui(), keep.hs, grads.d_si, order_pre);
    acc(lstm.wg(), pre.x, grads.d_sg, order_pre);
    acc(lstm.ug(), keep.hs, grads.d_sg, order_pre);
    acc(lstm.uo(), keep.hs, grads.d_so, order_pre);
    acc(lstm.wf(), gate_x, grads.d_sf_right, order_gate);
    acc(lstm.uf(), gate_h, grads.d_sf_right, order_gate);
    acc(lstm.wo(), pre.x, grads.d_so, order_post);
  }
  model->embed_.AccumulateGrads(x_in, pre.h1, grads.d_e2, grads.d_e1,
                                order_post.data(), order_post.size());
}

}  // namespace internal

namespace {

using internal::kTreesPerPass;
using internal::LevelPass;

/// The node- or query-wise loss (Eq. 2/3) of every sample in the pass —
/// bit-equal to TreeLossFast's value, appended to `losses` — and its
/// gradient at each head's logit, through the Scale/Add/Abs/Sub/Sigmoid
/// chain.
void LevelNodeLoss(LevelPass* pass, std::vector<float>* losses) {
  namespace k = nn::kernels;
  const TreeModel& model = *pass->model;
  pass->dlogit = pass->arena.AllocZeroed(pass->num_rows());
  for (size_t s = 0; s + 1 < pass->post_begin.size(); ++s) {
    int terms = 0;
    for (size_t p = pass->post_begin[s]; p < pass->post_begin[s + 1]; ++p) {
      terms += pass->nodes[pass->post[p]].head ? 1 : 0;
    }
    LPCE_CHECK_MSG(terms > 0, "a training sample has no loss term");
    // Each term's gradient: 1, or Scale(1/terms)'s backward of 1.
    const float one = 1.0f;
    float g = 0.0f;
    if (terms > 1) {
      k::AddScaledInPlace(&g, &one, 1.0f / static_cast<float>(terms), 1);
    } else {
      g = one;
    }
    float loss = 0.0f;
    bool first = true;
    for (size_t p = pass->post_begin[s]; p < pass->post_begin[s + 1]; ++p) {
      const LevelPass::Node& node = pass->nodes[pass->post[p]];
      if (!node.head) continue;
      const size_t row = static_cast<size_t>(node.row);
      float diff = pass->y[row];
      const float target =
          static_cast<float>(model.CardToY(node.est->true_card));
      k::AddScaledInPlace(&diff, &target, -1.0f, 1);  // Sub
      float term = std::fabs(diff);
      if (first) {
        loss = term;
        first = false;
      } else {
        k::AddInPlace(&loss, &term, 1);
      }
      float d_diff = 0.0f;
      k::AbsBackwardAccumulate(&d_diff, &g, &diff, 1);
      float d_y = 0.0f;
      k::AddInPlace(&d_y, &d_diff, 1);  // Sub's backward into y
      k::SigmoidBackwardAccumulate(pass->dlogit + row, &d_y, pass->y + row, 1);
    }
    if (terms > 1) k::ScaleInPlace(&loss, 1.0f / static_cast<float>(terms), 1);
    losses->push_back(loss);
  }
}

}  // namespace

LevelTrainer::LevelTrainer(TreeModel* model)
    : pass_(std::make_unique<internal::LevelPass>(model)) {}

LevelTrainer::~LevelTrainer() = default;

bool LevelTrainer::HasLoss(const EstNode* root, bool node_wise,
                           const EstNode* injected_at) {
  if (!node_wise) return root->true_card >= 0.0;
  if (root == injected_at || root->is_injected()) return false;
  return root->true_card >= 0.0 ||
         (root->left != nullptr &&
          HasLoss(root->left.get(), node_wise, injected_at)) ||
         (root->right != nullptr &&
          HasLoss(root->right.get(), node_wise, injected_at));
}

void LevelTrainer::Step(const std::vector<Sample>& samples, bool node_wise,
                        std::vector<float>* losses) {
  LPCE_PROFILE_SCOPE("train.level_step");
  const size_t d = static_cast<size_t>(pass_->model->config().dim);
  losses->clear();
  injected_grads_.resize(samples.size() * d);
  for (size_t begin = 0; begin < samples.size(); begin += kTreesPerPass) {
    const size_t count = std::min(kTreesPerPass, samples.size() - begin);
    pass_->Build(samples.data() + begin, count,
                 node_wise ? LevelPass::Heads::kNodeWise
                           : LevelPass::Heads::kQueryWise);
    pass_->Forward();
    LevelNodeLoss(pass_.get(), losses);
    pass_->Backward(/*output_head=*/true, nullptr);
    pass_->Accumulate(/*output_head=*/true);
    nn::kernels::Copy(pass_->d_injected, injected_grads_.data() + begin * d,
                      count * d);
  }
}

const float* LevelTrainer::InjectedGrad(size_t i) const {
  return injected_grads_.data() +
         i * static_cast<size_t>(pass_->model->config().dim);
}

TrainStats TrainTreeModel(TreeModel* model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& train,
                          const TrainOptions& options) {
  LPCE_PROFILE_SCOPE("train.tree_model");
  WallTimer total_timer;
  TrainStats stats;
  stats.model_tag = options.tag;
  ScopedMatMulThreads thread_cap(options.num_threads);
  nn::Adam adam(&model->params(), {.lr = options.lr});
  nn::MiniBatchStep step{{{&model->params(), &adam}}, options.grad_clip,
                     options.after_step};
  Rng rng(options.seed);

  // Pre-build estimation trees once (they are immutable during training).
  std::vector<std::unique_ptr<EstNode>> trees;
  trees.reserve(train.size());
  for (const auto& labeled : train) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(MakeEstTree(labeled.query, logical.get(), database,
                                &labeled.true_cards));
  }
  // Encode every node once; epochs (and the validation passes) reuse the
  // rows instead of re-featurizing the same immutable trees.
  const std::vector<nn::Matrix> fcaches = BuildFeatureCaches(*model, train, trees);
  LevelTrainer level(model);

  // Optional validation split: the tail of a seed-shuffled permutation.
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> validation;
  if (options.validation_fraction > 0.0 && train.size() >= 10) {
    rng.Shuffle(&order);
    const size_t held =
        std::max<size_t>(1, static_cast<size_t>(static_cast<double>(train.size()) *
                                                options.validation_fraction));
    validation.assign(order.end() - static_cast<long>(held), order.end());
    order.resize(order.size() - held);
  }
  // Validation pass: surrogate loss plus root q-error distribution against
  // the held-out queries' final cardinalities.
  struct ValMetrics {
    double loss = -1.0;
    double qerror_mean = -1.0;
    double qerror_median = -1.0;
    double qerror_p95 = -1.0;
  };
  auto validate = [&]() {
    ValMetrics val;
    double total = 0.0;
    int count = 0;
    std::vector<double> qerrors;
    qerrors.reserve(validation.size());
    // All validation trees run as one multi-tree level-batched pass.
    std::vector<std::pair<const qry::Query*, const EstNode*>> vtrees;
    std::vector<const nn::Matrix*> vcaches;
    vtrees.reserve(validation.size());
    vcaches.reserve(validation.size());
    for (size_t idx : validation) {
      vtrees.emplace_back(&train[idx].query, trees[idx].get());
      vcaches.push_back(&fcaches[idx]);
    }
    std::vector<std::vector<TreeModel::InferNodeOutput>> vouts;
    model->InferTrees(vtrees, &vouts, /*dynamic_child_cards=*/false,
                      &vcaches);
    for (size_t v = 0; v < validation.size(); ++v) {
      bool has_loss = false;
      const float loss =
          TreeLossFast(*model, vouts[v], options.node_wise, &has_loss);
      if (!has_loss) continue;
      total += static_cast<double>(loss);
      ++count;
      const double est =
          std::max(1.0, model->YToCard(
                            static_cast<double>(vouts[v].back().y)));
      const double act = std::max(
          1.0, static_cast<double>(train[validation[v]].FinalCard()));
      qerrors.push_back(est > act ? est / act : act / est);
    }
    val.loss = count > 0 ? total / count : 0.0;
    if (!qerrors.empty()) {
      std::sort(qerrors.begin(), qerrors.end());
      double sum = 0.0;
      for (double q : qerrors) sum += q;
      const size_t n = qerrors.size();
      val.qerror_mean = sum / static_cast<double>(n);
      val.qerror_median = qerrors[(n - 1) / 2];
      val.qerror_p95 =
          qerrors[std::min(n - 1, static_cast<size_t>(0.95 * (n - 1) + 0.5))];
    }
    return val;
  };

  double best_validation = std::numeric_limits<double>::infinity();
  int epochs_since_best = 0;
  std::unordered_map<std::string, nn::Matrix> best_params;

  std::vector<LevelTrainer::Sample> batch;
  std::vector<float> losses;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.epoch");
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int samples = 0;
    auto run_batch = [&]() {
      level.Step(batch, options.node_wise, &losses);
      for (const float loss : losses) epoch_loss += loss;
      samples += static_cast<int>(batch.size());
      step.Run(static_cast<int>(batch.size()));
      batch.clear();
    };
    for (size_t idx : order) {
      if (!LevelTrainer::HasLoss(trees[idx].get(), options.node_wise)) continue;
      batch.push_back({&train[idx].query, trees[idx].get(), &fcaches[idx]});
      if (static_cast<int>(batch.size()) >= options.batch_size) run_batch();
    }
    if (!batch.empty()) run_batch();

    EpochStats es;
    es.epoch = epoch;
    es.stage = "train";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm = step.TakeEpochGradNorm();
    LPCE_LOG(Debug) << "tree-model epoch " << epoch << " loss "
                    << es.train_loss;

    bool stop = false;
    if (!validation.empty()) {
      const ValMetrics val = validate();
      es.validation_loss = val.loss;
      es.val_qerror_mean = val.qerror_mean;
      es.val_qerror_median = val.qerror_median;
      es.val_qerror_p95 = val.qerror_p95;
      LPCE_LOG(Debug) << "tree-model epoch " << epoch << " validation "
                      << val.loss;
      if (val.loss < best_validation) {
        best_validation = val.loss;
        epochs_since_best = 0;
        es.is_best = true;
        stats.best_epoch = epoch;
        best_params.clear();
        for (const auto& name : model->params().names()) {
          best_params.emplace(name, model->params().Get(name)->value());
        }
      } else if (++epochs_since_best >= options.patience &&
                 options.patience > 0) {
        LPCE_LOG(Debug) << "early stop at epoch " << epoch;
        stats.early_stopped = true;
        stop = true;
      }
    }
    stats.epochs.push_back(std::move(es));
    if (stop) break;
  }
  // Restore the best-validation snapshot (Sec. 7.1's held-out 10%); the
  // returned stats point at that epoch, so final_train_loss() reflects the
  // parameters the caller actually gets.
  if (!best_params.empty()) {
    for (const auto& name : model->params().names()) {
      auto it = best_params.find(name);
      if (it != best_params.end()) {
        model->params().Get(name)->mutable_value() = it->second;
      }
    }
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordTrainStats(stats);
  return stats;
}


namespace {

/// Hint loss (Eq. 4) over every node: |t_x - p_e(s_x)| and
/// |t_h - p_s(s_h)|, summed. Appends each sample's loss, sets the student's
/// d(h) and d(x) terms, and adds p_e / p_s's gradients.
void HintLoss(LevelPass* student, const LevelPass& teacher,
              const nn::Linear& pe, const nn::Linear& ps,
              std::vector<float>* losses, float** extra_dx) {
  namespace k = nn::kernels;
  nn::InferArena& arena = student->arena;
  const size_t n = student->num_rows();
  const size_t sd = pe.in_dim();
  const size_t td = pe.out_dim();
  // Sub(t, p(s)) per row: the (constant) teacher row minus the projection.
  float* ex = arena.Alloc(n * td);
  k::Copy(teacher.pre.x, ex, n * td);
  k::AddScaledInPlace(ex, LinearRows(pe, student->pre.x, n, sd, td, &arena),
                      -1.0f, n * td);
  float* eh = arena.Alloc(n * td);
  k::Copy(teacher.h, eh, n * td);
  k::AddScaledInPlace(eh, LinearRows(ps, student->h, n, sd, td, &arena),
                      -1.0f, n * td);
  float* abs_row = arena.Alloc(td);
  float* g_row = arena.AllocZeroed(n * td);  // each term's gradient, per row
  for (size_t s = 0; s + 1 < student->post_begin.size(); ++s) {
    const size_t begin = student->post_begin[s];
    const size_t end = student->post_begin[s + 1];
    const float inv = 1.0f / static_cast<float>(end - begin);
    const float one = 1.0f;
    float g = 0.0f;
    k::AddScaledInPlace(&g, &one, inv, 1);  // Scale(loss, 1/n)'s backward
    float loss = 0.0f;
    for (size_t p = begin; p < end; ++p) {
      const size_t row = static_cast<size_t>(student->row_of(student->post[p]));
      float sums[2];
      const float* diffs[2] = {ex + row * td, eh + row * td};
      for (int t = 0; t < 2; ++t) {
        for (size_t j = 0; j < td; ++j) abs_row[j] = std::fabs(diffs[t][j]);
        sums[t] = k::Sum(abs_row, td);
      }
      float term = sums[0];
      k::AddInPlace(&term, &sums[1], 1);
      if (p == begin) {
        loss = term;
      } else {
        k::AddInPlace(&loss, &term, 1);
      }
      for (size_t j = 0; j < td; ++j) g_row[row * td + j] = g;
    }
    k::ScaleInPlace(&loss, inv, 1);
    losses->push_back(loss);
  }
  // Sum -> Abs -> Sub's backward into the projection, for both terms.
  float* d_pe = arena.AllocZeroed(n * td);
  float* d_ps = arena.AllocZeroed(n * td);
  for (auto [diff, d_proj] : {std::pair{ex, d_pe}, std::pair{eh, d_ps}}) {
    float* d_diff = arena.AllocZeroed(n * td);
    k::AbsBackwardAccumulate(d_diff, g_row, diff, n * td);
    k::AddScaledInPlace(d_proj, d_diff, -1.0f, n * td);
  }
  const std::vector<int>& order = student->order_head;
  ps.AccumulateGrads(student->h, d_ps, order.data(), order.size());
  pe.AccumulateGrads(student->pre.x, d_pe, order.data(), order.size());
  student->dh = arena.Alloc(n * sd);
  ps.BackwardInput(d_ps, n, student->dh);
  *extra_dx = arena.Alloc(n * sd);
  pe.BackwardInput(d_pe, n, *extra_dx);
}

/// Prediction loss (Eq. 5) over every node: (1 - alpha) |t_logit - s_logit|
/// plus, where labelled, alpha |y - y*|. Appends each sample's loss and sets
/// the student's d(logit).
void PredictionLoss(LevelPass* student, const LevelPass& teacher, float alpha,
                    std::vector<float>* losses) {
  namespace k = nn::kernels;
  const TreeModel& model = *student->model;
  student->dlogit = student->arena.AllocZeroed(student->num_rows());
  const float one = 1.0f;
  const float logit_weight = 1.0f - alpha;
  for (size_t s = 0; s + 1 < student->post_begin.size(); ++s) {
    const size_t begin = student->post_begin[s];
    const size_t end = student->post_begin[s + 1];
    const float inv = 1.0f / static_cast<float>(end - begin);
    float g = 0.0f;
    k::AddScaledInPlace(&g, &one, inv, 1);  // Scale(loss, 1/n)'s backward
    float loss = 0.0f;
    for (size_t p = begin; p < end; ++p) {
      const int flat = student->post[p];
      const size_t row = static_cast<size_t>(student->row_of(flat));
      float logit_diff = teacher.out.logit[row];
      k::AddScaledInPlace(&logit_diff, student->out.logit + row, -1.0f, 1);
      float term = std::fabs(logit_diff);
      k::ScaleInPlace(&term, logit_weight, 1);
      float* dlogit = student->dlogit + row;
      const double true_card = student->nodes[flat].est->true_card;
      if (true_card >= 0.0) {
        float diff = student->y[row];
        const float target = static_cast<float>(model.CardToY(true_card));
        k::AddScaledInPlace(&diff, &target, -1.0f, 1);
        float q = std::fabs(diff);
        k::ScaleInPlace(&q, alpha, 1);
        k::AddInPlace(&term, &q, 1);
        // Scale(q, alpha) -> Abs -> Sub -> Sigmoid, before the logit term's
        // Sub reaches the same logit.
        float g_q = 0.0f;
        k::AddScaledInPlace(&g_q, &g, alpha, 1);
        float d_diff = 0.0f;
        k::AbsBackwardAccumulate(&d_diff, &g_q, &diff, 1);
        float d_y = 0.0f;
        k::AddInPlace(&d_y, &d_diff, 1);
        k::SigmoidBackwardAccumulate(dlogit, &d_y, student->y + row, 1);
      }
      float g_l = 0.0f;
      k::AddScaledInPlace(&g_l, &g, logit_weight, 1);
      float d_logit_diff = 0.0f;
      k::AbsBackwardAccumulate(&d_logit_diff, &g_l, &logit_diff, 1);
      k::AddScaledInPlace(dlogit, &d_logit_diff, -1.0f, 1);
      if (p == begin) {
        loss = term;
      } else {
        k::AddInPlace(&loss, &term, 1);
      }
    }
    k::ScaleInPlace(&loss, inv, 1);
    losses->push_back(loss);
  }
}

}  // namespace

TrainStats DistillTreeModel(TreeModel* student, const TreeModel& teacher,
                            const db::Database& database,
                            const std::vector<wk::LabeledQuery>& train,
                            const DistillOptions& options) {
  LPCE_PROFILE_SCOPE("train.distill");
  WallTimer total_timer;
  TrainStats stats;
  stats.model_tag = options.tag;
  ScopedMatMulThreads thread_cap(options.num_threads);
  // Projections p_e / p_s lift student embeddings/representations to the
  // teacher's width (Eq. 4). They live in their own store: training-only.
  Rng rng(options.seed);
  nn::ParamStore proj_store;
  nn::Linear pe(&proj_store, "pe", static_cast<size_t>(student->config().dim),
                static_cast<size_t>(teacher.config().dim), &rng);
  nn::Linear ps(&proj_store, "ps", static_cast<size_t>(student->config().dim),
                static_cast<size_t>(teacher.config().dim), &rng);

  nn::Adam student_adam(&student->params(), {.lr = options.lr});
  nn::Adam proj_adam(&proj_store, {.lr = options.lr});
  nn::MiniBatchStep step{{{&student->params(), &student_adam},
                      {&proj_store, &proj_adam}},
                     options.grad_clip,
                     options.after_step};
  Rng order_rng(options.seed + 17);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::unique_ptr<EstNode>> trees;
  trees.reserve(train.size());
  for (const auto& labeled : train) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(MakeEstTree(labeled.query, logical.get(), database,
                                &labeled.true_cards));
  }
  // One cache serves both forwards of the distillation double-pass when the
  // models share an encoder (the standard setup); otherwise the teacher gets
  // its own rows.
  const std::vector<nn::Matrix> scaches =
      BuildFeatureCaches(*student, train, trees);
  const bool shared_encoder = teacher.encoder() == student->encoder();
  const std::vector<nn::Matrix> tcaches =
      shared_encoder ? std::vector<nn::Matrix>()
                     : BuildFeatureCaches(teacher, train, trees);

  // Both models run the same trees through the same flattening, so a row
  // index names the same node in either pass. The teacher's pass is
  // inference only; it keeps x, h and the logit.
  LevelPass student_pass(student);
  LevelPass teacher_pass(&teacher);
  std::vector<LevelTrainer::Sample> student_batch, teacher_batch;
  std::vector<float> losses;
  const int total_epochs = options.hint_epochs + options.predict_epochs;
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.epoch");
    WallTimer epoch_timer;
    const bool hint_stage = epoch < options.hint_epochs;
    order_rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int samples = 0;
    auto run_batch = [&]() {
      losses.clear();
      for (size_t begin = 0; begin < student_batch.size();
           begin += kTreesPerPass) {
        const size_t count =
            std::min(kTreesPerPass, student_batch.size() - begin);
        student_pass.Build(student_batch.data() + begin, count,
                           LevelPass::Heads::kAll);
        student_pass.Forward();
        teacher_pass.Build(teacher_batch.data() + begin, count,
                           LevelPass::Heads::kAll);
        teacher_pass.Forward();
        float* extra_dx = nullptr;
        if (hint_stage) {
          HintLoss(&student_pass, teacher_pass, pe, ps, &losses, &extra_dx);
        } else {
          PredictionLoss(&student_pass, teacher_pass, options.alpha, &losses);
        }
        student_pass.Backward(/*output_head=*/!hint_stage, extra_dx);
        student_pass.Accumulate(/*output_head=*/!hint_stage);
      }
      for (const float loss : losses) epoch_loss += loss;
      samples += static_cast<int>(student_batch.size());
      step.Run(static_cast<int>(student_batch.size()));
      student_batch.clear();
      teacher_batch.clear();
    };
    for (size_t idx : order) {
      student_batch.push_back(
          {&train[idx].query, trees[idx].get(), &scaches[idx]});
      teacher_batch.push_back({&train[idx].query, trees[idx].get(),
                               shared_encoder ? &scaches[idx] : &tcaches[idx]});
      if (static_cast<int>(student_batch.size()) >= options.batch_size) {
        run_batch();
      }
    }
    if (!student_batch.empty()) run_batch();
    EpochStats es;
    es.epoch = epoch;
    es.stage = hint_stage ? "hint" : "predict";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm = step.TakeEpochGradNorm();
    stats.epochs.push_back(std::move(es));
    LPCE_LOG(Debug) << "distill epoch " << epoch
                    << (hint_stage ? " (hint)" : " (predict)");
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordTrainStats(stats);
  return stats;
}

double EvaluateRootQError(const TreeModel& model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& test) {
  std::vector<std::unique_ptr<EstNode>> trees;
  std::vector<std::pair<const qry::Query*, const EstNode*>> batch;
  trees.reserve(test.size());
  for (const auto& labeled : test) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(MakeEstTree(labeled.query, logical.get(), database,
                                &labeled.true_cards));
    batch.emplace_back(&labeled.query, trees.back().get());
  }
  std::vector<std::vector<TreeModel::InferNodeOutput>> outputs;
  model.InferTrees(batch, &outputs);
  double total = 0.0;
  for (size_t i = 0; i < test.size(); ++i) {
    const double est = outputs[i].back().card;
    const double act = static_cast<double>(test[i].FinalCard());
    const double q = std::max(std::max(est, 1.0), std::max(act, 1.0)) /
                     std::min(std::max(est, 1.0), std::max(act, 1.0));
    total += q;
  }
  return test.empty() ? 0.0 : total / static_cast<double>(test.size());
}

}  // namespace lpce::model
