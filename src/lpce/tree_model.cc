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

nn::Tensor Detach(const nn::Tensor& t) { return nn::MakeTensor(t->value()); }

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
    nn::Tensor src = other.params().Get(name);
    nn::Tensor dst = params_.Get(name);
    dst->mutable_value() = src->value();
  }
}

namespace {

struct ForwardState {
  nn::Tensor c;
  nn::Tensor h;
  double est_card = -1.0;  // running estimate (dynamic-cards mode)
};

}  // namespace

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

std::vector<TreeModel::NodeOutput> TreeModel::Forward(
    const qry::Query& query, const EstNode* root, bool dynamic_child_cards,
    const nn::Matrix* feature_cache) const {
  LPCE_PROFILE_SCOPE("lpce.forward");
  std::vector<NodeOutput> outputs;
  size_t cache_row = 0;
  // Recursive lambda returning the (c, h) state of each subtree.
  std::function<ForwardState(const EstNode*)> walk =
      [&](const EstNode* node) -> ForwardState {
    if (node->is_injected()) {
      // Executed sub-plan: its encoding replaces the child encoding
      // (paper Sec. 5.1, "efficient progressive refinement").
      return {node->injected_c, nullptr, node->true_card};
    }
    ForwardState left_state, right_state;
    if (node->left != nullptr) left_state = walk(node->left.get());
    if (node->right != nullptr) right_state = walk(node->right.get());

    LPCE_DCHECK(node->is_leaf() ? node->table_pos >= 0 : node->join_idx >= 0);
    nn::Matrix features(1, static_cast<size_t>(config_.feature_dim));
    if (feature_cache != nullptr) {
      // Cached rows are the encoder's exact stores: no arithmetic, so the
      // cached and uncached passes are bit-identical.
      LPCE_DCHECK(cache_row < feature_cache->rows());
      std::memcpy(features.data(),
                  feature_cache->data() + cache_row * feature_cache->cols(),
                  feature_cache->cols() * sizeof(float));
      ++cache_row;
    } else if (node->is_leaf()) {
      encoder_->EncodeScanInto(query, node->table_pos, features.data());
    } else {
      encoder_->EncodeJoinInto(query, node->join_idx, features.data());
    }
    if (config_.with_child_cards) {
      double card_left = std::max(0.0, node->child_card_left);
      double card_right = std::max(0.0, node->child_card_right);
      if (dynamic_child_cards && !node->is_leaf()) {
        // Executed children keep their real cardinalities (true_card >= 0);
        // unexecuted ones fall back to the model's own running estimates.
        if (node->left->true_card < 0.0) {
          card_left = std::max(0.0, left_state.est_card);
        }
        if (node->right->true_card < 0.0) {
          card_right = std::max(0.0, right_state.est_card);
        }
      }
      nn::Matrix with_cards(1, features.cols() + 2);
      for (size_t j = 0; j < features.cols(); ++j) {
        with_cards.at(0, j) = features.at(0, j);
      }
      with_cards.at(0, features.cols()) = static_cast<float>(CardToY(card_left));
      with_cards.at(0, features.cols() + 1) =
          static_cast<float>(CardToY(card_right));
      features = std::move(with_cards);
    }
    nn::Tensor x = embed_.Forward(nn::MakeTensor(std::move(features)),
                                  nn::Mlp2::Activation::kRelu,
                                  nn::Mlp2::Activation::kRelu);
    nn::CellOutput cell;
    if (config_.use_lstm) {
      cell = lstm_.Step(x, left_state.c, left_state.h, right_state.c,
                        right_state.h);
    } else {
      cell = sru_.Step(x, left_state.c, right_state.c);
    }
    NodeOutput out;
    out.node = node;
    out.x = x;
    out.c = cell.c;
    out.h = cell.h;
    out.logit = output_.ForwardLogit(cell.h);
    out.y = nn::Sigmoid(out.logit);
    outputs.push_back(out);
    return {cell.c, cell.h,
            YToCard(static_cast<double>(out.y->value().at(0, 0)))};
  };
  walk(root);
  return outputs;
}

double TreeModel::PredictCard(const qry::Query& query, const EstNode* root) const {
  std::vector<NodeOutput> outputs = Forward(query, root);
  LPCE_CHECK(!outputs.empty());
  return YToCard(static_cast<double>(outputs.back().y->value().at(0, 0)));
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
// Tape-free, level-batched inference (PR 4 tentpole).
//
// Trees are flattened once into a per-thread workspace; nodes are grouped by
// depth (children are always exactly one level deeper than their parent) and
// each depth runs embed / cell / output as single [N x d] matmuls, deepest
// level first. Every kernel invocation matches the taped Forward's per-node
// operation sequence — one rounding per element per autograd op — through the
// shared out-of-line kernels in nn/kernels.h, so outputs are bit-identical
// to Forward at any batch composition.
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
  float* x = nullptr;  // [n x d] embedded features, post-relu
  // SRU: x~, and the f/r gates (already sigmoided — elementwise, so the
  // activation is batch-composition-invariant).
  float* xt = nullptr;
  float* f = nullptr;
  float* r = nullptr;
  // LSTM: pre-activation x-side products (the gate sums need U.h first).
  float* wi_x = nullptr;
  float* wo_x = nullptr;
  float* wg_x = nullptr;
  float* wf_x = nullptr;
};

namespace {

/// y = x W + b over `rows` rows — Linear::Forward's exact kernel sequence.
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

  // Embed module: relu(relu(x W1 + b1) W2 + b2), as Mlp2::Forward(kRelu,
  // kRelu) on the taped path. The first linear's input rows are encoder
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
                             const float* const* c_left,
                             const float* const* c_right,
                             const float* const* h_left,
                             const float* const* h_right, float* c, float* h,
                             nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  LPCE_PROFILE_SCOPE("nn.infer.cell");
  const float* x = pre.x + row0 * d;
  if (!config_.use_lstm) {
    // Tree SRU (paper Eq. 1), mirroring TreeSruCell::Step op by op. All the
    // linears live in CellPre; only elementwise work remains per level.
    const float* xt = pre.xt + row0 * d;
    const float* f = pre.f + row0 * d;
    const float* r = pre.r + row0 * d;
    // child_sum rows: Add for two children (one rounding, as SumChildren's
    // Add), plain copy for one (Step reuses the child tensor unrounded),
    // zero for none.
    float* cs = arena->Alloc(n * d);
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
    // c = f (.) child_sum + (1 - f) (.) x~  — four kernel calls matching
    // Mul/OneMinus/Mul/Add on the taped path (no FMA fusion across ops).
    float* t1 = arena->Alloc(n * d);
    k::Mul(f, cs, t1, n * d);
    float* om = arena->Alloc(n * d);
    k::OneMinus(f, om, n * d);
    float* t2 = arena->Alloc(n * d);
    k::Mul(om, xt, t2, n * d);
    k::Add(t1, t2, c, n * d);
    // h = r (.) tanh(c) + (1 - r) (.) x
    float* tc = arena->Alloc(n * d);
    k::Tanh(c, tc, n * d);
    float* t3 = arena->Alloc(n * d);
    k::Mul(r, tc, t3, n * d);
    k::OneMinus(r, om, n * d);
    k::Mul(om, x, t2, n * d);
    k::Add(t3, t2, h, n * d);
  } else {
    // Binary child-sum tree LSTM, mirroring TreeLstmCell::Step.
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
    float* ui_h = u_linear(lstm_.ui());
    float* gi = arena->Alloc(n * d);
    k::Add(pre.wi_x + row0 * d, ui_h, gi, n * d);
    k::Sigmoid(gi, n * d);
    float* uo_h = u_linear(lstm_.uo());
    float* go = arena->Alloc(n * d);
    k::Add(pre.wo_x + row0 * d, uo_h, go, n * d);
    k::Sigmoid(go, n * d);
    float* ug_h = u_linear(lstm_.ug());
    float* gg = arena->Alloc(n * d);
    k::Add(pre.wg_x + row0 * d, ug_h, gg, n * d);
    k::TanhInPlace(gg, n * d);
    k::Mul(gi, gg, c, n * d);
    // Forget-gate child terms. Both children's uf products run as ONE
    // gathered Gemm — all left-child rows first, then all right-child rows —
    // so the uf weight matrix streams through cache once per level instead
    // of twice. The per-row c updates are applied in that same order, which
    // is exactly Step's left-then-right addition order, and Gemm row
    // partitioning is bitwise-invariant, so the merge is bit-identical to
    // two separate passes.
    const float* wf_x = pre.wf_x + row0 * d;
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
          k::Zero(hg + g * d, d);  // injected child: Step passes ZeroVec
        }
      }
      float* uf_h = LinearRows(lstm_.uf(), hg, m, d, d, arena);
      float* fk = arena->Alloc(m * d);
      for (size_t g = 0; g < m; ++g) {
        const size_t row = static_cast<size_t>(ws.gather[g]) >> 1;
        k::Add(wf_x + row * d, uf_h + g * d, fk + g * d, d);
      }
      k::Sigmoid(fk, m * d);
      float* tmp = arena->Alloc(m * d);
      for (size_t g = 0; g < m; ++g) {
        const size_t row = static_cast<size_t>(ws.gather[g]) >> 1;
        const float* cc = (ws.gather[g] & 1) ? c_right[row] : c_left[row];
        k::Mul(fk + g * d, cc, tmp + g * d, d);
        k::AddInPlace(c + row * d, tmp + g * d, d);
      }
    }
    float* tc = arena->Alloc(n * d);
    k::Tanh(c, tc, n * d);
    k::Mul(go, tc, h, n * d);
  }
}

float* TreeModel::RunOutputHead(const float* h, size_t n,
                                nn::InferArena* arena) const {
  namespace k = nn::kernels;
  const size_t d = static_cast<size_t>(config_.dim);
  const size_t oh = static_cast<size_t>(config_.out_hidden);
  // Output module: sigmoid(relu(h W1 + b1) W2 + b2) — Mlp2::ForwardLogit
  // (inner kRelu) followed by the taped path's Sigmoid.
  LPCE_PROFILE_SCOPE("nn.infer.output");
  float* o1 = LinearRows(output_.l1(), h, n, d, oh, arena);
  k::Relu(o1, n * oh);
  float* logit = LinearRows(output_.l2(), o1, n, oh, 1, arena);
  k::Sigmoid(logit, n);
  return logit;
}

void TreeModel::RunLevelBatch(LevelBatch* b, nn::InferArena* arena) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const CellPre pre = RunCellPre(b->x_in, b->n, arena);
  float* c = arena->Alloc(b->n * d);
  float* h = arena->Alloc(b->n * d);
  RunCellLevel(pre, 0, b->n, b->c_left, b->c_right, b->h_left, b->h_right, c,
               h, arena);
  b->y = RunOutputHead(h, b->n, arena);
  b->c = c;
  b->h = h;
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
      ws.c_of[i] = ws.nodes[i].node->injected_c->value().data();
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
      const qry::Query& query = *queries[fn.tree];
      float* dst = dst_base + r * in_dim;
      const int crow = cache_row_of[flat];
      if (crow >= 0) {
        const nn::Matrix& cache = *caches[fn.tree];
        std::memcpy(dst, cache.data() + static_cast<size_t>(crow) * cache.cols(),
                    cache.cols() * sizeof(float));
      } else if (node->is_leaf()) {
        encoder_->EncodeScanInto(query, node->table_pos, dst);
      } else {
        encoder_->EncodeJoinInto(query, node->join_idx, dst);
      }
      if (config_.with_child_cards) {
        double card_left = std::max(0.0, node->child_card_left);
        double card_right = std::max(0.0, node->child_card_right);
        if (dynamic_child_cards && !node->is_leaf()) {
          // Children live one level deeper: already computed.
          if (node->left->true_card < 0.0) {
            card_left = std::max(0.0, ws.card_of[fn.left]);
          }
          if (node->right->true_card < 0.0) {
            card_right = std::max(0.0, ws.card_of[fn.right]);
          }
        }
        dst[in_dim - 2] = static_cast<float>(CardToY(card_left));
        dst[in_dim - 1] = static_cast<float>(CardToY(card_right));
      }
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
      RunCellLevel(pre, row0, n, ws.cl.data(), ws.cr.data(), ws.hl.data(),
                   ws.hr.data(), c_all + row0 * d, h_all + row0 * d, &arena);
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

void TreeModel::LeafStatesFastBatch(const qry::Query& query,
                                    const std::vector<int>& positions,
                                    std::vector<RawState>* out) const {
  LPCE_CHECK_MSG(!config_.with_child_cards,
                 "batched states need a content-style model");
  out->resize(positions.size());
  if (positions.empty()) return;
  LPCE_PROFILE_SCOPE("nn.infer.leaf_batch");
  nn::InferArena& arena = nn::InferArena::ThreadLocal();
  InferWorkspace& ws = TlsInferWorkspace();
  const size_t n = positions.size();
  const size_t in_dim = static_cast<size_t>(input_dim());
  const size_t d = static_cast<size_t>(config_.dim);
  LevelBatch batch;
  batch.n = n;
  batch.x_in = arena.Alloc(n * in_dim);
  for (size_t r = 0; r < n; ++r) {
    encoder_->EncodeScanInto(query, positions[r], batch.x_in + r * in_dim);
  }
  ws.cl.assign(n, nullptr);
  batch.c_left = batch.c_right = batch.h_left = batch.h_right = ws.cl.data();
  RunLevelBatch(&batch, &arena);
  for (size_t r = 0; r < n; ++r) {
    (*out)[r] = {batch.c + r * d, batch.h + r * d,
                 YToCard(static_cast<double>(batch.y[r]))};
  }
}

void TreeModel::JoinStatesFastBatch(const qry::Query& query,
                                    const std::vector<JoinStateRequest>& requests,
                                    std::vector<RawState>* out) const {
  LPCE_CHECK_MSG(!config_.with_child_cards,
                 "batched states need a content-style model");
  out->resize(requests.size());
  if (requests.empty()) return;
  LPCE_PROFILE_SCOPE("nn.infer.join_batch");
  nn::InferArena& arena = nn::InferArena::ThreadLocal();
  InferWorkspace& ws = TlsInferWorkspace();
  const size_t n = requests.size();
  const size_t in_dim = static_cast<size_t>(input_dim());
  const size_t d = static_cast<size_t>(config_.dim);
  LevelBatch batch;
  batch.n = n;
  batch.x_in = arena.Alloc(n * in_dim);
  ws.cl.clear();
  ws.cr.clear();
  ws.hl.clear();
  ws.hr.clear();
  for (size_t r = 0; r < n; ++r) {
    const JoinStateRequest& req = requests[r];
    encoder_->EncodeJoinInto(query, req.join_idx, batch.x_in + r * in_dim);
    ws.cl.push_back(req.left->c);
    ws.cr.push_back(req.right->c);
    ws.hl.push_back(req.left->h);
    ws.hr.push_back(req.right->h);
  }
  batch.c_left = ws.cl.data();
  batch.c_right = ws.cr.data();
  batch.h_left = ws.hl.data();
  batch.h_right = ws.hr.data();
  RunLevelBatch(&batch, &arena);
  for (size_t r = 0; r < n; ++r) {
    (*out)[r] = {batch.c + r * d, batch.h + r * d,
                 YToCard(static_cast<double>(batch.y[r]))};
  }
}

namespace {

/// Builds the (node- or query-wise) loss over one tree's outputs; returns
/// nullptr when no labeled node exists.
nn::Tensor TreeLoss(const TreeModel& model,
                    const std::vector<TreeModel::NodeOutput>& outputs,
                    bool node_wise) {
  nn::Tensor loss;
  int terms = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!node_wise && i + 1 != outputs.size()) continue;  // root only
    const TreeModel::NodeOutput& out = outputs[i];
    if (out.node->true_card < 0.0) continue;
    nn::Matrix target(1, 1);
    target.at(0, 0) = static_cast<float>(model.CardToY(out.node->true_card));
    nn::Tensor term = nn::Abs(nn::Sub(out.y, nn::MakeTensor(target)));
    loss = loss == nullptr ? term : nn::Add(loss, term);
    ++terms;
  }
  if (loss != nullptr && terms > 1) {
    loss = nn::Scale(loss, 1.0f / static_cast<float>(terms));
  }
  return loss;
}

/// Float replication of TreeLoss over batched inference outputs. The scalar
/// Sub/Add/Scale steps run through the same kernels as the 1-element tensor
/// ops (an inline accumulation loop could be reassociated under -ffast-math),
/// so the batched validation loss is bit-equal to the taped one.
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

TrainStats TrainTreeModel(TreeModel* model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& train,
                          const TrainOptions& options) {
  LPCE_PROFILE_SCOPE("train.tree_model");
  WallTimer total_timer;
  TrainStats stats;
  stats.model_tag = options.tag;
  ScopedMatMulThreads thread_cap(options.num_threads);
  nn::Adam adam(&model->params(), {.lr = options.lr});
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
    // All validation trees run as one multi-tree level-batched pass; the
    // per-node ys (and hence losses and q-errors) are bit-equal to the
    // taped Forward's.
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

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.epoch");
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int batch_count = 0;
    int samples = 0;
    double grad_norm_sum = 0.0;
    int grad_norm_steps = 0;
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      auto outputs = model->Forward(labeled.query, trees[idx].get(),
                                    /*dynamic_child_cards=*/false,
                                    &fcaches[idx]);
      nn::Tensor loss = TreeLoss(*model, outputs, options.node_wise);
      if (loss == nullptr) continue;
      nn::Backward(loss);
      epoch_loss += loss->value().at(0, 0);
      ++samples;
      if (++batch_count >= options.batch_size) {
        model->params().ScaleGrads(1.0f / static_cast<float>(batch_count));
        grad_norm_sum += static_cast<double>(model->params().GradNorm());
        ++grad_norm_steps;
        model->params().ClipGradNorm(options.grad_clip);
        adam.Step();
        batch_count = 0;
      }
    }
    if (batch_count > 0) {
      model->params().ScaleGrads(1.0f / static_cast<float>(batch_count));
      grad_norm_sum += static_cast<double>(model->params().GradNorm());
      ++grad_norm_steps;
      model->params().ClipGradNorm(options.grad_clip);
      adam.Step();
    }

    EpochStats es;
    es.epoch = epoch;
    es.stage = "train";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm =
        grad_norm_steps > 0 ? grad_norm_sum / grad_norm_steps : 0.0;
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

  const int total_epochs = options.hint_epochs + options.predict_epochs;
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.epoch");
    WallTimer epoch_timer;
    const bool hint_stage = epoch < options.hint_epochs;
    order_rng.Shuffle(&order);
    int batch_count = 0;
    double epoch_loss = 0.0;
    int samples = 0;
    double grad_norm_sum = 0.0;
    int grad_norm_steps = 0;
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      auto teacher_out = teacher.Forward(
          labeled.query, trees[idx].get(), /*dynamic_child_cards=*/false,
          shared_encoder ? &scaches[idx] : &tcaches[idx]);
      auto student_out = student->Forward(labeled.query, trees[idx].get(),
                                          /*dynamic_child_cards=*/false,
                                          &scaches[idx]);
      LPCE_CHECK(teacher_out.size() == student_out.size());
      nn::Tensor loss;
      for (size_t i = 0; i < student_out.size(); ++i) {
        nn::Tensor term;
        if (hint_stage) {
          // Hint loss: match embed and representation through projections.
          nn::Tensor ex = nn::Abs(
              nn::Sub(Detach(teacher_out[i].x), pe.Forward(student_out[i].x)));
          nn::Tensor eh = nn::Abs(
              nn::Sub(Detach(teacher_out[i].h), ps.Forward(student_out[i].h)));
          term = nn::Add(nn::Sum(ex), nn::Sum(eh));
        } else {
          // Prediction loss: alpha * q + (1 - alpha) * |logit_t - logit_s|.
          const double true_card = student_out[i].node->true_card;
          nn::Tensor logit_term = nn::Abs(
              nn::Sub(Detach(teacher_out[i].logit), student_out[i].logit));
          term = nn::Scale(logit_term, 1.0f - options.alpha);
          if (true_card >= 0.0) {
            nn::Matrix target(1, 1);
            target.at(0, 0) = static_cast<float>(student->CardToY(true_card));
            nn::Tensor q = nn::Abs(nn::Sub(student_out[i].y, nn::MakeTensor(target)));
            term = nn::Add(term, nn::Scale(q, options.alpha));
          }
        }
        loss = loss == nullptr ? term : nn::Add(loss, term);
      }
      if (loss == nullptr) continue;
      loss = nn::Scale(loss, 1.0f / static_cast<float>(student_out.size()));
      nn::Backward(loss);
      epoch_loss += loss->value().at(0, 0);
      ++samples;
      if (++batch_count >= options.batch_size) {
        const float scale = 1.0f / static_cast<float>(batch_count);
        student->params().ScaleGrads(scale);
        grad_norm_sum += static_cast<double>(student->params().GradNorm());
        ++grad_norm_steps;
        student->params().ClipGradNorm(options.grad_clip);
        proj_store.ScaleGrads(scale);
        proj_store.ClipGradNorm(options.grad_clip);
        student_adam.Step();
        proj_adam.Step();
        batch_count = 0;
      }
    }
    if (batch_count > 0) {
      student_adam.Step();
      proj_adam.Step();
    }
    EpochStats es;
    es.epoch = epoch;
    es.stage = hint_stage ? "hint" : "predict";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm =
        grad_norm_steps > 0 ? grad_norm_sum / grad_norm_steps : 0.0;
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
  double total = 0.0;
  int count = 0;
  for (const auto& labeled : test) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    auto tree = MakeEstTree(labeled.query, logical.get(), database,
                            &labeled.true_cards);
    const double est = model.PredictCard(labeled.query, tree.get());
    const double act = static_cast<double>(labeled.FinalCard());
    const double q = std::max(std::max(est, 1.0), std::max(act, 1.0)) /
                     std::min(std::max(est, 1.0), std::max(act, 1.0));
    total += q;
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace lpce::model
