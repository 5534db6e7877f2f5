// The tree-structured estimation model of LPCE-I (paper Fig. 6) and its
// training procedures: node-wise / query-wise losses (Eq. 2-3) and knowledge
// distillation (Eq. 4-5, Fig. 7).
//
// The same class also instantiates the TLSTM baseline (LSTM cell +
// query-wise loss) and the LPCE-T/S/C/Q ablation variants, and serves as the
// backbone of all three LPCE-R modules (Sec. 5).
#ifndef LPCE_LPCE_TREE_MODEL_H_
#define LPCE_LPCE_TREE_MODEL_H_

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
  nn::Tensor injected_c;  // executed-sub-plan leaves (LPCE-R)

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

/// Thread-safety: weights are mutated only by the training procedures
/// (TrainTreeModel/DistillTreeModel/TrainLpceR) and Load(); once those
/// return, the parameters are read-only — every inference entry point
/// (Forward/Infer/InferBatch) is const and touches only per-thread scratch
/// (nn::InferArena::ThreadLocal). A trained TreeModel is therefore shared
/// read-only across serving workers (engine/server.h). Do not interleave
/// training with concurrent inference on the same instance.
class TreeModel {
 public:
  struct NodeOutput {
    const EstNode* node = nullptr;
    nn::Tensor x;      // embed-module output
    nn::Tensor c;      // node encoding
    nn::Tensor h;      // node representation
    nn::Tensor logit;  // output module pre-sigmoid (distillation target)
    nn::Tensor y;      // sigmoid(logit): normalized log-cardinality
  };

  TreeModel(const FeatureEncoder* encoder, TreeModelConfig config);

  TreeModel(const TreeModel&) = delete;
  TreeModel& operator=(const TreeModel&) = delete;

  /// Runs the model over the tree; returns one output per non-injected node
  /// in post-order (the root is last).
  ///
  /// When `dynamic_child_cards` is set (LPCE-R-Single inference, Table 3),
  /// internal nodes whose children lack a true_card label take the model's
  /// own running estimates as the child-cardinality inputs instead.
  ///
  /// `feature_cache` (optional) holds one precomputed base-feature row per
  /// non-injected node in post-order (BuildFeatureCache); training reuses it
  /// across epochs instead of re-running the encoder every pass.
  std::vector<NodeOutput> Forward(const qry::Query& query, const EstNode* root,
                                  bool dynamic_child_cards = false,
                                  const nn::Matrix* feature_cache = nullptr) const;

  /// Encodes every non-injected node of the tree once: row i holds the base
  /// encoder features (width feature_dim) of the i-th post-order node.
  /// Child-cardinality columns are appended per Forward/Infer pass, so one
  /// cache serves static and dynamic modes and every model configuration.
  nn::Matrix BuildFeatureCache(const qry::Query& query, const EstNode* root) const;

  // ---- Tape-free, level-batched inference fast path (PR 4). ----
  //
  // All plan-tree nodes at the same depth run through embed / cell / output
  // as single [N x d] matmuls; every intermediate lives in the calling
  // thread's nn::InferArena, so a query performs zero heap allocations after
  // warmup. Because the taped Forward and this path funnel through the same
  // out-of-line kernels (nn/kernels.h) with the same per-node operation
  // sequence, results are bit-identical to Forward — pinned by
  // tests/infer_fastpath_test.cc.

  struct InferNodeOutput {
    const EstNode* node = nullptr;
    float y = 0.0f;    // sigmoid output, bit-equal to Forward's y
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

  /// Arena-backed incremental state for the batched sub-plan passes (paper
  /// Sec. 6.1): the recurrent (c, h) pair plus the node's cardinality
  /// estimate. A subset's canonical chain extends the chain of the subset
  /// minus its last-added unit, so each subset costs one cell step
  /// (TreeModelEstimator::PrepareQuery, LpceREstimator's round pass). An
  /// injected executed sub-plan is {c_AB, nullptr, true card}. Pointers live
  /// in the thread arena: valid until the thread's next Infer/arena reset.
  /// Only content-style models (no child-cardinality inputs) support this.
  struct RawState {
    const float* c = nullptr;
    const float* h = nullptr;
    double card = 0.0;
  };

  struct JoinStateRequest {
    int join_idx = -1;
    const RawState* left = nullptr;
    const RawState* right = nullptr;
  };

  /// Base-table leaf states, one per entry of `positions`, computed as a
  /// single [N x d] pass. Caller owns the arena lifecycle (reset before the
  /// first batch of a query, keep alive across levels).
  void LeafStatesFastBatch(const qry::Query& query,
                           const std::vector<int>& positions,
                           std::vector<RawState>* out) const;

  /// Join states: request i joins `left[i]` and `right[i]` over join edge
  /// `join_idx[i]`; all requests run as one [N x d] pass.
  void JoinStatesFastBatch(const qry::Query& query,
                           const std::vector<JoinStateRequest>& requests,
                           std::vector<RawState>* out) const;

  /// Cardinality estimate for the root of the tree.
  double PredictCard(const qry::Query& query, const EstNode* root) const;

  /// Inference fast path (no autograd graph): root cardinality estimate.
  /// Supports injected leaves and the dynamic-child-cards mode.
  double PredictCardFast(const qry::Query& query, const EstNode* root,
                         bool dynamic_child_cards = false) const;

  /// Fast per-node estimates, keyed by relation set (post-order).
  void PredictAllFast(const qry::Query& query, const EstNode* root,
                      std::vector<std::pair<qry::RelSet, double>>* out) const;

  /// Inference fast path for the root's encoding c (LPCE-R executed-sub-plan
  /// feature extraction).
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

 private:
  friend class TreeModelTrainer;

  int input_dim() const {
    return config_.feature_dim + (config_.with_child_cards ? 2 : 0);
  }

  /// One level's worth of batched embed + cell + output work; defined in
  /// tree_model.cc.
  struct LevelBatch;
  void RunLevelBatch(LevelBatch* batch, nn::InferArena* arena) const;

  /// The three stages RunLevelBatch and the hoisted InferManyImpl path are
  /// built from (defined in tree_model.cc). CellPre holds the
  /// child-independent products — embed plus every W.x linear — which the
  /// hoisted path computes once for all levels so each weight matrix streams
  /// through cache once per batch instead of once per level.
  struct CellPre;
  CellPre RunCellPre(const float* x_in, size_t n, nn::InferArena* arena) const;
  void RunCellLevel(const CellPre& pre, size_t row0, size_t n,
                    const float* const* c_left, const float* const* c_right,
                    const float* const* h_left, const float* const* h_right,
                    float* c, float* h, nn::InferArena* arena) const;
  float* RunOutputHead(const float* h, size_t n, nn::InferArena* arena) const;

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
};

/// Trains with the (node- or query-wise) q-error surrogate |y - y*| and
/// returns per-epoch telemetry. Contract: the returned
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
};

/// Knowledge distillation: trains `student` to match `teacher` through
/// learned projections p_e / p_s, then calibrates with the prediction loss.
/// Epochs carry stage "hint" then "predict"; there is no validation split,
/// so best_epoch stays -1.
TrainStats DistillTreeModel(TreeModel* student, const TreeModel& teacher,
                            const db::Database& database,
                            const std::vector<wk::LabeledQuery>& train,
                            const DistillOptions& options);

/// Mean q-error of root predictions over a workload (evaluation helper).
double EvaluateRootQError(const TreeModel& model, const db::Database& database,
                          const std::vector<wk::LabeledQuery>& test);

/// Detaches a tensor from the autograd graph (constant copy of its value).
nn::Tensor Detach(const nn::Tensor& t);

}  // namespace lpce::model

#endif  // LPCE_LPCE_TREE_MODEL_H_
