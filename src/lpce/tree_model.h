// The tree-structured estimation model of LPCE-I (paper Fig. 6) and its
// training procedures: node-wise / query-wise losses (Eq. 2-3) and knowledge
// distillation (Eq. 4-5, Fig. 7).
//
// The same class also instantiates the TLSTM baseline (LSTM cell +
// query-wise loss) and the LPCE-T/S/C/Q ablation variants, and serves as the
// backbone of all three LPCE-R modules (Sec. 5).
#ifndef LPCE_LPCE_TREE_MODEL_H_
#define LPCE_LPCE_TREE_MODEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "lpce/feature.h"
#include "lpce/train_stats.h"
#include "nn/adam.h"
#include "nn/arena.h"
#include "nn/cells.h"
#include "nn/layers.h"
#include "workload/workload.h"

namespace lpce::model {

/// Generalized estimation tree. Leaves are base-table scans or — during
/// LPCE-R refinement — "injected" nodes carrying a precomputed encoding of
/// an executed sub-plan. Internal nodes are joins.
struct EstNode {
  qry::RelSet rels = 0;
  int table_pos = -1;  // base-table leaves
  int join_idx = -1;   // internal nodes
  /// Executed-sub-plan leaves (LPCE-R): the sub-plan's encoding c_AB, a
  /// [1 x dim] row shared by every tree that injects it.
  std::shared_ptr<const nn::Matrix> injected_c;

  /// Children cardinalities (raw tuple counts) for the cardinality module;
  /// for base leaves `left` holds the table's row count (paper Sec. 5.2).
  double child_card_left = -1.0;
  double child_card_right = -1.0;

  /// Training label: the node's true cardinality (< 0 when unknown).
  double true_card = -1.0;

  std::unique_ptr<EstNode> left;
  std::unique_ptr<EstNode> right;

  bool is_injected() const { return injected_c != nullptr; }
  bool is_leaf() const { return left == nullptr && right == nullptr; }
};

/// Converts a logical tree into an estimation tree, filling labels and
/// children cardinalities from `labels` when provided.
std::unique_ptr<EstNode> MakeEstTree(
    const qry::Query& query, const qry::LogicalNode* logical,
    const db::Database& database,
    const std::unordered_map<qry::RelSet, uint64_t>* labels);

struct TreeModelConfig {
  int feature_dim = 0;
  int dim = 64;           // embed output == recurrent hidden size
  int embed_hidden = 64;  // inner width of the embed module
  int out_hidden = 128;   // inner width of the output module
  bool use_lstm = false;  // TLSTM / LPCE-T use the tree-LSTM cell
  bool with_child_cards = false;  // LPCE-R cardinality module input
  double log_max_card = 20.0;     // log(1 + max train cardinality)
  uint64_t seed = 1;
};

namespace internal {
struct LevelPass;  // the level-batched training pass (tree_model.cc)
}  // namespace internal

/// Thread-safety: weights are mutated only by the training procedures
/// (TrainTreeModel/DistillTreeModel/TrainLpceR) and Load(); once those
/// return, the parameters are read-only — every inference entry point
/// (Infer/InferTrees/RunSubsetPass) is const and touches only per-thread scratch
/// (nn::InferArena::ThreadLocal). A trained TreeModel is therefore shared
/// read-only across serving workers (engine/server.h). Do not interleave
/// training with concurrent inference on the same instance.
class TreeModel {
 public:
  TreeModel(const FeatureEncoder* encoder, TreeModelConfig config);

  TreeModel(const TreeModel&) = delete;
  TreeModel& operator=(const TreeModel&) = delete;

  /// Encodes every non-injected node of the tree once: row i holds the base
  /// encoder features (width feature_dim) of the i-th post-order node.
  /// Child-cardinality columns are appended per Infer pass, so one cache
  /// serves static and dynamic modes and every model configuration.
  nn::Matrix BuildFeatureCache(const qry::Query& query, const EstNode* root) const;

  // ---- Level-batched forward: the model's one forward implementation. ----
  //
  // All plan-tree nodes at the same depth run through embed / cell / output
  // as single [N x d] matmuls; every intermediate lives in the calling
  // thread's nn::InferArena, so a query performs zero heap allocations after
  // warmup. Every kernel is one out-of-line definition (nn/kernels.h) run in
  // a fixed per-node operation sequence, so a node's outputs do not depend
  // on the batch it runs in. When `dynamic_child_cards` is set (LPCE-R-Single
  // inference, Table 3), internal nodes whose children lack a true_card
  // label take the model's own running estimates as the child-cardinality
  // inputs instead.

  struct InferNodeOutput {
    const EstNode* node = nullptr;
    float y = 0.0f;    // sigmoid output: normalized log-cardinality
    double card = 0.0; // YToCard(y)
  };

  struct InferResult {
    double root_card = 0.0;
    /// Root encoding / representation, each `dim` floats. Arena-owned:
    /// valid until the calling thread's next Infer/PrepareQuery entry.
    const float* root_c = nullptr;
    const float* root_h = nullptr;
  };

  /// Single-tree batched inference. Resets the thread arena on entry. When
  /// `sink` is given, collects (rels, card) for every non-injected node in
  /// post-order (PredictAllFast contract).
  InferResult Infer(const qry::Query& query, const EstNode* root,
                    bool dynamic_child_cards = false,
                    std::vector<std::pair<qry::RelSet, double>>* sink = nullptr,
                    const nn::Matrix* feature_cache = nullptr) const;

  /// Multi-tree batched inference (validation forward): nodes of all trees
  /// at the same depth share one matmul per layer. outputs->at(t) receives
  /// tree t's post-order per-node outputs (vectors are reused, not shrunk).
  /// `caches` (optional, parallel to `trees`) supplies per-tree feature
  /// caches; null entries fall back to the encoder.
  void InferTrees(
      const std::vector<std::pair<const qry::Query*, const EstNode*>>& trees,
      std::vector<std::vector<InferNodeOutput>>* outputs,
      bool dynamic_child_cards = false,
      const std::vector<const nn::Matrix*>* caches = nullptr) const;

  /// Arena-backed state of one relation set in a subset pass (paper Sec.
  /// 6.1): the recurrent (c, h) pair plus the set's cardinality estimate. A
  /// subset's canonical chain extends the chain of the subset minus its
  /// last-added unit, so each subset costs one cell step
  /// (TreeModelEstimator::PrepareQuery, LpceREstimator's round pass). An
  /// injected executed sub-plan is {c_AB, nullptr, true card}. Pointers live
  /// in the thread arena: valid until the thread's next Infer/arena reset.
  struct RawState {
    const float* c = nullptr;
    const float* h = nullptr;
    double card = 0.0;
  };

  /// One join step of a subset pass: the state of `rels` joins the states of
  /// `left` and `right` (a partition of `rels`) over join edge `join_idx`.
  struct SubsetStep {
    qry::RelSet rels = 0;
    qry::RelSet left = 0;
    qry::RelSet right = 0;
    int join_idx = -1;
  };

  /// The whole-pass kernel behind the batched sub-plan passes, over `states`
  /// indexed by RelSet. Base-table leaf states go to states[qry::Bit(p)] for
  /// every position p in `leaves`; then each level of `steps`
  /// (steps[level_end[i-1] .. level_end[i]), children in `leaves`, in
  /// earlier levels, or injected states the caller placed in `states`)
  /// writes states[rels]. The child-independent CellPre (embed plus the
  /// cell's input projections) runs once, over the leaves and the distinct
  /// join edges the steps use; each level runs only the cell's
  /// child-dependent step; the output head runs once at the end, over every
  /// computed state, and fills its card. Gemm rows do not depend on the
  /// batch's other rows, so every state is bit-identical to running its
  /// chain as a tree through Infer. Content-style models only (no
  /// child-cardinality inputs). Caller owns the arena lifecycle (reset
  /// before the pass; states live there).
  void RunSubsetPass(const qry::Query& query, qry::RelSet leaves,
                     const std::vector<SubsetStep>& steps,
                     const std::vector<size_t>& level_end,
                     RawState* states) const;

  /// Root cardinality estimate.
  /// Supports injected leaves and the dynamic-child-cards mode.
  double PredictCardFast(const qry::Query& query, const EstNode* root,
                         bool dynamic_child_cards = false) const;

  /// Fast per-node estimates, keyed by relation set (post-order).
  void PredictAllFast(const qry::Query& query, const EstNode* root,
                      std::vector<std::pair<qry::RelSet, double>>* out) const;

  /// The root's encoding c (LPCE-R executed-sub-plan feature extraction).
  nn::Matrix EncodeRootFast(const qry::Query& query, const EstNode* root) const;

  /// Normalized log-cardinality <-> raw cardinality. YToCard is one scalar
  /// out-of-line body, so every inference path converts a y to the same
  /// card bits.
  double CardToY(double card) const;
  double YToCard(double y) const;

  nn::ParamStore& params() { return params_; }
  const nn::ParamStore& params() const { return params_; }
  const TreeModelConfig& config() const { return config_; }
  const FeatureEncoder* encoder() const { return encoder_; }

  /// Copies parameter values from a same-shaped model (LPCE-R initializes
  /// the refine module from the content module, Sec. 5.2).
  void CopyParamsFrom(const TreeModel& other);

  /// Module views (the tests' taped oracle runs its forward from these).
  const nn::Mlp2& embed() const { return embed_; }
  const nn::TreeSruCell& sru() const { return sru_; }
  const nn::TreeLstmCell& lstm() const { return lstm_; }
  const nn::Mlp2& output() const { return output_; }

  int input_dim() const {
    return config_.feature_dim + (config_.with_child_cards ? 2 : 0);
  }

  /// Writes one input row: the node's encoder features (row `cache_row` of
  /// `cache` when given), then, for child-cardinality models, the children's
  /// normalized cards.
  void FillInputRow(const qry::Query& query, const EstNode* node,
                    const nn::Matrix* cache, int cache_row, double card_left,
                    double card_right, float* dst) const;

 private:
  friend struct internal::LevelPass;

  /// One level's worth of batched embed + cell + output work; defined in
  /// tree_model.cc.
  struct LevelBatch;
  void RunLevelBatch(LevelBatch* batch, nn::InferArena* arena) const;

  /// The three stages RunLevelBatch and the hoisted InferManyImpl path are
  /// built from (defined in tree_model.cc). CellPre holds the
  /// child-independent products — embed, every W.x linear and the SRU's
  /// (1 - f) x~ and (1 - r) x — which the hoisted path and RunSubsetPass
  /// compute once for all levels so each weight matrix streams through
  /// cache once per batch instead of once per level.
  ///
  /// Training keeps what the backward pass reads: the embed hidden layer
  /// (CellPre::h1), the cell activations of every level (`keep`, see
  /// CellKeep), and the output head's hidden layer and logit (OutputActs).
  struct CellPre;
  /// A training forward's cell activations, [n x dim] each, level-offset.
  /// SRU: cs (the child sum) and tc (tanh c). LSTM: tc, the gates i, o, g
  /// and the forget gates fl / fr (rows without that child are untouched),
  /// and hs (the children's h sum, zero when no child has an h).
  struct CellKeep {
    float* cs = nullptr;
    float* tc = nullptr;
    float* i = nullptr;
    float* o = nullptr;
    float* g = nullptr;
    float* fl = nullptr;
    float* fr = nullptr;
    float* hs = nullptr;
  };
  struct OutputActs {
    float* o1 = nullptr;     // [n x out_hidden], post-relu
    float* logit = nullptr;  // [n], pre-sigmoid
  };
  CellPre RunCellPre(const float* x_in, size_t n, nn::InferArena* arena) const;
  /// One level's child-dependent cell step. Row r reads CellPre row
  /// `pre_rows[r]`, or row0 + r when `pre_rows` is null.
  void RunCellLevel(const CellPre& pre, size_t row0, size_t n,
                    const uint32_t* pre_rows,
                    const float* const* c_left, const float* const* c_right,
                    const float* const* h_left, const float* const* h_right,
                    float* c, float* h, nn::InferArena* arena,
                    const CellKeep* keep = nullptr) const;
  float* RunOutputHead(const float* h, size_t n, nn::InferArena* arena,
                       OutputActs* keep = nullptr) const;

  /// The backward level kernels (training on level kernels, DESIGN.md). Each
  /// replays the reverse-mode chain rule of its part of the forward, op by
  /// op, with the rounded operations and gradient-summation order of
  /// per-tree reverse-mode passes; parameter gradients are accumulated
  /// separately by internal::LevelPass, in those passes' row order.
  /// Output head: d(logit) -> d(h) over n rows; keeps the hidden layer's
  /// gradient in `d_o1` ([n x out_hidden]).
  void RunOutputHeadBackward(const float* dlogit, const float* o1, size_t n,
                             float* d_o1, float* dh,
                             nn::InferArena* arena) const;
  /// One level of the cell backward, the children's level still to come.
  /// `dc` holds the parent's contribution to d(c) and gains the tanh(c)
  /// term of h. SRU: `child_dc_left` receives d(c_left) == d(c_right).
  /// LSTM: `dh` already includes the parent's terms; the gate gradients
  /// (CellGrads::d_so, d_si, d_sg, d_sf_*, level-offset) are written, and each
  /// present child gets d(c) in child_dc_* and, when it has an h, d(h) in
  /// child_dh_* ([n x dim] each).
  struct CellGrads {
    // SRU.
    float* d_xt = nullptr;  // d(x~) = d(W_x x + b_x)          [n x dim]
    float* d_f1 = nullptr;  // d(W_f x + b_f)                  [n x dim]
    float* d_r1 = nullptr;  // d(W_r x + b_r)                  [n x dim]
    // LSTM: the gate sums' gradients; the forget gates' per child (rows
    // without that child stay zero).
    float* d_so = nullptr;
    float* d_si = nullptr;
    float* d_sg = nullptr;
    float* d_sf_right = nullptr;
    float* d_sf_left = nullptr;
    // Embed.
    float* d_e2 = nullptr;  // d(embed layer 2, pre-relu)      [n x dim]
    float* d_e1 = nullptr;  // d(embed layer 1, pre-relu)      [n x embed_hidden]
  };
  struct ChildGrads {
    float* dc_left = nullptr;
    float* dc_right = nullptr;
    float* dh_left = nullptr;
    float* dh_right = nullptr;
  };
  void RunCellLevelBackward(const CellPre& pre, const CellKeep& keep,
                            size_t row0, size_t n, const float* dh,
                            const float* const* c_left,
                            const float* const* c_right,
                            const float* const* h_left,
                            const float* const* h_right, float* dc,
                            const CellGrads& grads, const ChildGrads& child,
                            nn::InferArena* arena) const;
  /// Gate and embed gradients of every row at once (no cross-row dependency
  /// left once every level's dc is known). Writes the pre-activation
  /// gradients the parameter accumulation reads.
  void RunCellPreBackward(const CellPre& pre, const CellKeep& keep,
                          const float* dh, const float* dc,
                          const float* extra_dx, size_t n, CellGrads* grads,
                          nn::InferArena* arena) const;

  /// Shared driver behind Infer/InferTrees: flattens the trees, groups nodes
  /// by depth, and runs one LevelBatch per depth (deepest first). Any of
  /// `caches`, `outputs`, `sink`, `root_result` may be null.
  void InferManyImpl(const qry::Query* const* queries,
                     const EstNode* const* roots, size_t num_trees,
                     const nn::Matrix* const* caches, bool dynamic_child_cards,
                     std::vector<std::vector<InferNodeOutput>>* outputs,
                     std::vector<std::pair<qry::RelSet, double>>* sink,
                     InferResult* root_result) const;

  const FeatureEncoder* encoder_;
  TreeModelConfig config_;
  nn::ParamStore params_;
  nn::Mlp2 embed_;
  nn::TreeSruCell sru_;
  nn::TreeLstmCell lstm_;
  nn::Mlp2 output_;
};

struct TrainOptions {
  int epochs = 10;
  float lr = 1e-3f;
  int batch_size = 32;
  float grad_clip = 5.0f;
  bool node_wise = true;  // false: query-wise loss (Eq. 2) — MSCN/TLSTM style
  uint64_t seed = 123;
  /// Hold out this fraction of the training queries as a validation set
  /// (the paper holds out 10%, Sec. 7.1). When > 0, the parameters with the
  /// best validation loss are restored at the end of training, and training
  /// stops early after `patience` epochs without improvement (0 = never).
  double validation_fraction = 0.0;
  int patience = 0;
  /// Thread cap for the training matrix products (0 = global pool size,
  /// 1 = sequential). Any setting trains to bit-identical parameters — the
  /// parallel products preserve the sequential accumulation order.
  int num_threads = 0;
  /// Model tag stamped into TrainStats / the LPCE_TRAIN_LOG JSONL.
  std::string tag = "tree_model";
  /// Called after every Adam step (tests compare trainers step by step).
  std::function<void()> after_step;
};

/// Trains with the (node- or query-wise) q-error surrogate |y - y*| and
/// returns per-epoch telemetry. Each mini-batch trains as one level-batched
/// pass (LevelTrainer), for SRU and LSTM models alike. Contract: the returned
/// TrainStats::final_train_loss() is the training loss of the parameters the
/// model is left with — the best-validation epoch when early stopping
/// restored a snapshot (best_epoch >= 0), else the last epoch.
TrainStats TrainTreeModel(TreeModel* model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& train,
                          const TrainOptions& options);

struct DistillOptions {
  int hint_epochs = 6;        // stage 1: hint loss (Eq. 4)
  int predict_epochs = 6;     // stage 2: prediction loss (Eq. 5)
  float alpha = 0.5f;         // weight between q-error and logit matching
  float lr = 1e-3f;
  int batch_size = 32;
  float grad_clip = 5.0f;
  uint64_t seed = 321;
  /// Same contract as TrainOptions::num_threads.
  int num_threads = 0;
  /// Model tag stamped into TrainStats / the LPCE_TRAIN_LOG JSONL.
  std::string tag = "distill";
  /// Called after every Adam step.
  std::function<void()> after_step;
};

/// Knowledge distillation: trains `student` to match `teacher` through
/// learned projections p_e / p_s, then calibrates with the prediction loss.
/// Epochs carry stage "hint" then "predict"; there is no validation split,
/// so best_epoch stays -1. Either model may use either cell.
TrainStats DistillTreeModel(TreeModel* student, const TreeModel& teacher,
                            const db::Database& database,
                            const std::vector<wk::LabeledQuery>& train,
                            const DistillOptions& options);

/// Mean q-error of root predictions over a workload (evaluation helper).
double EvaluateRootQError(const TreeModel& model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& test);

/// A mini-batch of trees trained as one level-batched forward and backward
/// pass (DESIGN.md "Training on level kernels"). All trees' nodes at the same
/// depth share each product, and the parameter gradients come out
/// bit-identical to running the trees one after another through per-tree
/// reverse-mode passes (the tests' taped oracle). SRU and LSTM models. The
/// workspace lives in the object and is freed with it.
class LevelTrainer {
 public:
  struct Sample {
    const qry::Query* query = nullptr;
    const EstNode* root = nullptr;
    /// BuildFeatureCache rows of `root`'s tree (null: run the encoder).
    const nn::Matrix* feature_cache = nullptr;
    /// LPCE-R stage 2: this subtree of `root` is replaced by an injected
    /// leaf with encoding `injected_c` (dim floats, alive until Step
    /// returns).
    const EstNode* injected_at = nullptr;
    const float* injected_c = nullptr;
  };

  explicit LevelTrainer(TreeModel* model);
  ~LevelTrainer();
  LevelTrainer(const LevelTrainer&) = delete;
  LevelTrainer& operator=(const LevelTrainer&) = delete;

  /// True when the tree contributes a term to the node-wise (or query-wise)
  /// loss; trainers count and batch only such trees.
  static bool HasLoss(const EstNode* root, bool node_wise,
                      const EstNode* injected_at = nullptr);

  /// Forward, loss (Eq. 2/3) and backward over `samples`, each of which must
  /// have HasLoss. Adds the parameter gradients to the model's, in the order
  /// per-sample reverse-mode passes would, and writes each sample's loss.
  void Step(const std::vector<Sample>& samples, bool node_wise,
            std::vector<float>* losses);

  /// d(loss)/d(injected_c) of sample i of the last Step (dim floats).
  const float* InjectedGrad(size_t i) const;

 private:
  std::unique_ptr<internal::LevelPass> pass_;
  std::vector<float> injected_grads_;
};

}  // namespace lpce::model

#endif  // LPCE_LPCE_TREE_MODEL_H_
