// LPCE-R: the progressive cardinality-refinement model (paper Sec. 5).
//
// Three modules share the LPCE-I architecture: `content` embeds the executed
// sub-plan's query content, `cardinality` embeds it together with the real
// cardinalities of each executed operator's children, and `refine` estimates
// the remaining operators. A learned connect layer (Eq. 6) merges the two
// executed-sub-plan embeddings c_A / c_B into c_AB, which is injected into
// the refine module's recurrence in place of a child encoding.
//
// Training (Fig. 9) is two-stage: (1) pre-train content (exactly like
// LPCE-I) and cardinality (features ⊕ children's real cards) with the
// node-wise loss; (2) freeze both, initialize refine from content, and
// fine-tune refine + connect on execution prefixes of the training plans.
#ifndef LPCE_LPCE_LPCE_R_H_
#define LPCE_LPCE_LPCE_R_H_

#include <memory>

#include "lpce/tree_model.h"

namespace lpce::model {

/// Which modules participate — the paper's Table 3 ablation.
enum class RefinerMode {
  kFull = 0,  // content + cardinality + connect + refine (LPCE-R)
  kSingle,    // one cardinality-style module for everything (LPCE-R-Single)
  kTwo,       // cardinality + refine, no content/connect (LPCE-R-Two)
};

class LpceR {
 public:
  /// `base_config` describes the shared module structure (the LPCE-I student
  /// configuration); with_child_cards is toggled internally per module.
  LpceR(const FeatureEncoder* encoder, TreeModelConfig base_config,
        RefinerMode mode = RefinerMode::kFull);

  RefinerMode mode() const { return mode_; }

  /// Mutable module access is for training/serialization only. Once trained,
  /// all module parameters are read-only — every estimate path below is
  /// const — so a trained LpceR is safe to share across serving threads.
  TreeModel& content() { return *content_; }
  const TreeModel& content() const { return *content_; }
  TreeModel& cardinality() { return *cardinality_; }
  const TreeModel& cardinality() const { return *cardinality_; }
  TreeModel& refine() { return *refine_; }
  const TreeModel& refine() const { return *refine_; }
  nn::ParamStore& connect_params() { return connect_params_; }
  const nn::ParamStore& connect_params() const { return connect_params_; }

  /// What Connect keeps for ConnectBackward, one row per encoding.
  struct ConnectActs {
    nn::Matrix c_content;
    nn::Matrix c_card;
    nn::Matrix w_a;  // sigmoid(c_content W_a + b_a)
    nn::Matrix w_b;  // sigmoid(c_card W_b + b_b)
    nn::Matrix merged;
    nn::Matrix out;
  };
  /// Connect layer (Eq. 6) over n rows of executed-sub-plan encodings:
  /// c_AB = relu((w_a (.) c_content + w_b (.) c_card) W_ab + b_ab). Rows do
  /// not interact. `acts` (optional) keeps what ConnectBackward reads.
  nn::Matrix Connect(const nn::Matrix& c_content, const nn::Matrix& c_card,
                     ConnectActs* acts = nullptr) const;
  /// Adds the connect layer's parameter gradients for d(loss)/d(c_AB) =
  /// `d_out` ([n x dim]), row after row, as n single-row reverse-mode
  /// passes would.
  void ConnectBackward(const ConnectActs& acts, const nn::Matrix& d_out) const;

  /// c_AB for an executed sub-plan tree whose child_card_* fields carry the
  /// real cardinalities.
  nn::Matrix EncodeExecutedFast(const qry::Query& query,
                                const EstNode* executed) const;
  /// Estimates the cardinality of the subtree root of `tree`, which may
  /// contain injected leaves carrying EncodeExecutedFast encodings.
  double EstimateTreeFast(const qry::Query& query, const EstNode* tree) const;

  /// Connect layer views (the tests' taped oracle runs from these).
  const nn::Linear& wa() const { return wa_; }
  const nn::Linear& wb() const { return wb_; }
  const nn::Linear& wab() const { return wab_; }

  double CardToY(double card) const { return refine_->CardToY(card); }
  double YToCard(double y) const { return refine_->YToCard(y); }

  /// Serialization of all module parameters into files under `prefix`.
  Status Save(const std::string& prefix) const;
  Status Load(const std::string& prefix);

 private:
  friend struct LpceRTrainer;

  RefinerMode mode_;
  const FeatureEncoder* encoder_;
  std::unique_ptr<TreeModel> content_;
  std::unique_ptr<TreeModel> cardinality_;
  std::unique_ptr<TreeModel> refine_;
  nn::ParamStore connect_params_;
  nn::Linear wa_;
  nn::Linear wb_;
  nn::Linear wab_;
};

struct LpceRTrainOptions {
  TrainOptions pretrain;           // stage 1 (both modules)
  int refine_epochs = 6;           // stage 2
  int prefixes_per_query = 3;      // sampled executed-subtree roots per plan
  float lr = 1e-3f;
  int batch_size = 32;
  float grad_clip = 5.0f;
  uint64_t seed = 777;
  /// Optional: initialize the content module from an already-trained LPCE-I
  /// (same shapes) instead of pre-training it from scratch.
  const TreeModel* pretrained_content = nullptr;
  /// Model tag stamped into the stage-2 TrainStats / LPCE_TRAIN_LOG JSONL.
  /// Stage-1 pre-training reports separately under `pretrain.tag`.
  std::string tag = "lpce_r";
  /// Called after every stage-2 Adam step (stage 1 uses pretrain's).
  std::function<void()> after_step;
};

/// Runs the full two-stage training procedure of Fig. 9. Returns per-epoch
/// telemetry for the stage-2 refine loop (stage "refine"); the stage-1
/// pre-training runs report their own TrainStats via TrainTreeModel. Stage 2
/// trains each mini-batch of refine trees as one level-batched pass
/// (LevelTrainer), then backpropagates each injected leaf's gradient through
/// Connect (kFull). SRU and LSTM configurations alike.
TrainStats TrainLpceR(LpceR* model, const db::Database& database,
                      const std::vector<wk::LabeledQuery>& train,
                      const LpceRTrainOptions& options);

}  // namespace lpce::model

#endif  // LPCE_LPCE_LPCE_R_H_
