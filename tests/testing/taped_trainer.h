// Taped training oracle: the trainers as they ran before training moved to
// the level kernels. Every tree goes alone through the autograd tape
// (TreeModel::Forward, then nn::Backward), and the tape accumulates the
// parameter gradients. The production trainers (TrainTreeModel,
// DistillTreeModel, TrainLpceR) run each mini-batch as one level-batched
// pass and must leave every parameter bit, loss and gradient norm equal to
// these after every Adam step: train_level_test and bench_train_level check
// exactly that. The end-of-batch update is the shared model::MiniBatchStep,
// so the trailing partial batch is averaged and clipped here too.
//
// Also home to the taped inference helpers no production path calls any
// more (PredictCard, LpceR's EncodeExecuted / EstimateTree, Detach).
#ifndef LPCE_TESTS_TESTING_TAPED_TRAINER_H_
#define LPCE_TESTS_TESTING_TAPED_TRAINER_H_

#include <vector>

#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"

namespace lpce::testing {

/// Root cardinality estimate through the taped Forward.
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

/// Both stages of TrainLpceR; stage 1 through TapedTrainTreeModel.
model::TrainStats TapedTrainLpceR(model::LpceR* lpce_r,
                                  const db::Database& database,
                                  const std::vector<wk::LabeledQuery>& train,
                                  const model::LpceRTrainOptions& options);

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_TAPED_TRAINER_H_
