// Taped training oracle: the models' forwards on the autograd tape
// (testing/tape.h) and the trainers as they ran before training moved to
// explicit backward kernels. Every sample goes alone through the tape
// (TapedForward, then nn::Backward), and the tape accumulates the parameter
// gradients. The production trainers (TrainTreeModel, DistillTreeModel,
// TrainLpceR, card::TrainMscn) run explicit backward passes and must leave
// every parameter bit, loss and gradient norm equal to these after every
// Adam step: train_level_test and bench_train_level check exactly that. The
// trainers' end-of-batch update is the shared nn::MiniBatchStep, so the
// trailing partial batch is averaged and clipped here too.
#ifndef LPCE_TESTS_TESTING_TAPED_TRAINER_H_
#define LPCE_TESTS_TESTING_TAPED_TRAINER_H_

#include <vector>

#include "card/mscn.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"
#include "testing/tape.h"

namespace lpce::testing {

/// One node's outputs on the tape.
struct TapedNodeOutput {
  const model::EstNode* node = nullptr;
  nn::Tensor x;      // embed-module output
  nn::Tensor c;      // node encoding
  nn::Tensor h;      // node representation
  nn::Tensor logit;  // output module pre-sigmoid (distillation target)
  nn::Tensor y;      // sigmoid(logit): normalized log-cardinality
};

/// Runs `model` over the tree one node at a time on the tape; returns one
/// output per non-injected node in post-order (the root is last). Injected
/// leaves read `injected` when it is non-null (a tensor carrying its own
/// graph), else a constant copy of their encoding. `dynamic_child_cards` and
/// `feature_cache` are as for TreeModel::Infer.
std::vector<TapedNodeOutput> TapedForward(
    const model::TreeModel& model, const qry::Query& query,
    const model::EstNode* root, bool dynamic_child_cards = false,
    const nn::Matrix* feature_cache = nullptr,
    const nn::Tensor& injected = nullptr);

/// LpceR's Connect layer (Eq. 6) on the tape, for one row.
nn::Tensor TapedConnect(const model::LpceR& lpce_r, const nn::Tensor& c_content,
                        const nn::Tensor& c_card);

/// MSCN's sigmoid output for the sub-query over `rels` on the tape.
nn::Tensor TapedMscnForward(const card::MscnModel& model,
                            const qry::Query& query, qry::RelSet rels,
                            const std::vector<float>& extra = {});

/// Root cardinality estimate through TapedForward.
double TapedPredictCard(const model::TreeModel& model, const qry::Query& query,
                        const model::EstNode* root);

/// c_AB of an executed sub-plan through the taped modules (kFull: the
/// Connect output, with its tape; otherwise the detached cardinality
/// encoding).
nn::Tensor TapedEncodeExecuted(const model::LpceR& lpce_r,
                               const qry::Query& query,
                               const model::EstNode* executed);

/// Cardinality of `tree`'s root, whose injected leaves carry
/// TapedEncodeExecuted encodings.
double TapedEstimateTree(const model::LpceR& lpce_r, const qry::Query& query,
                         const model::EstNode* tree);

model::TrainStats TapedTrainTreeModel(
    model::TreeModel* model, const db::Database& database,
    const std::vector<wk::LabeledQuery>& train,
    const model::TrainOptions& options);

model::TrainStats TapedDistillTreeModel(
    model::TreeModel* student, const model::TreeModel& teacher,
    const db::Database& database, const std::vector<wk::LabeledQuery>& train,
    const model::DistillOptions& options);

/// card::TrainMscn on the tape.
double TapedTrainMscn(card::MscnModel* model,
                      const std::vector<wk::LabeledQuery>& train,
                      const card::MscnTrainOptions& options,
                      const std::function<void()>& after_step = {});

/// Both stages of TrainLpceR; stage 1 through TapedTrainTreeModel.
model::TrainStats TapedTrainLpceR(model::LpceR* lpce_r,
                                  const db::Database& database,
                                  const std::vector<wk::LabeledQuery>& train,
                                  const model::LpceRTrainOptions& options);

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_TAPED_TRAINER_H_
