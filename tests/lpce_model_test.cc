// Model tests: feature encoding, tree-model training, distillation, MSCN,
// sampling estimators, and LPCE-R refinement. Tiny configs — these verify
// learning mechanics, not final accuracy (the benches measure that).
#include <cmath>

#include <gtest/gtest.h>

#include "card/mscn.h"
#include "card/sampling.h"
#include "exec/executor.h"
#include "lpce/estimators.h"
#include "lpce/lpce_r.h"
#include "testing/taped_trainer.h"
#include "workload/workload.h"

namespace lpce::model {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    encoder_ = std::make_unique<FeatureEncoder>(&database_->catalog(), &stats_);

    wk::GeneratorOptions gen;
    gen.seed = 5;
    gen.require_nonempty = true;  // align train/test root distributions
    wk::QueryGenerator generator(database_.get(), gen);
    train_ = generator.GenerateLabeled(200, 3, 7);
    test_ = generator.GenerateLabeled(16, 3, 7);
    log_max_card_ = std::log1p(static_cast<double>(wk::MaxCardinality(train_)));
  }

  TreeModelConfig SmallConfig(bool lstm = false) const {
    TreeModelConfig config;
    config.feature_dim = encoder_->dim();
    config.dim = 16;
    config.embed_hidden = 16;
    config.out_hidden = 32;
    config.use_lstm = lstm;
    config.log_max_card = log_max_card_;
    return config;
  }

  // Geometric mean of root q-errors: robust to the handful of heavy-tail
  // queries that dominate an arithmetic mean at toy scale.
  double MeanRootQError(card::CardinalityEstimator* estimator) const {
    double total_log = 0.0;
    for (const auto& labeled : test_) {
      const double est =
          estimator->EstimateSubset(labeled.query, labeled.query.AllRels());
      total_log +=
          std::log(exec::QError(est, static_cast<double>(labeled.FinalCard())));
    }
    return std::exp(total_log / static_cast<double>(test_.size()));
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::vector<wk::LabeledQuery> train_, test_;
  double log_max_card_ = 20.0;
};

TEST_F(ModelTest, FeatureEncoderShapes) {
  const int cols = database_->catalog().TotalColumns();
  EXPECT_EQ(encoder_->dim(), 2 + 2 * cols + qry::kNumCmpOps + 1);
  const auto& labeled = train_.front();
  nn::Matrix scan = encoder_->EncodeScan(labeled.query, 0);
  EXPECT_EQ(scan.cols(), static_cast<size_t>(encoder_->dim()));
  EXPECT_FLOAT_EQ(scan.at(0, 0), 1.0f);  // function = scan
  EXPECT_FLOAT_EQ(scan.at(0, 1), 0.0f);
  if (!labeled.query.joins.empty()) {
    nn::Matrix join = encoder_->EncodeJoin(labeled.query, 0);
    EXPECT_FLOAT_EQ(join.at(0, 1), 1.0f);  // function = join
    float join_cols = 0.0f;
    for (int c = 0; c < cols; ++c) join_cols += join.at(0, 2 + c);
    EXPECT_FLOAT_EQ(join_cols, 2.0f);  // two-hot join condition
  }
}

TEST_F(ModelTest, OperandNormalizationIsBounded) {
  const int32_t t = database_->catalog().FindTable("title");
  for (int64_t v : {-100000, 0, 1990, 100000}) {
    const float norm = encoder_->NormalizeOperand({t, 2}, v);
    EXPECT_GE(norm, 0.0f);
    EXPECT_LE(norm, 1.0f);
  }
}

TEST_F(ModelTest, TrainingReducesLoss) {
  TreeModel model(encoder_.get(), SmallConfig());
  TrainOptions options;
  options.epochs = 1;
  const double first =
      TrainTreeModel(&model, *database_, train_, options).final_train_loss();
  options.epochs = 8;
  const double later =
      TrainTreeModel(&model, *database_, train_, options).final_train_loss();
  EXPECT_LT(later, first);
}

TEST_F(ModelTest, TrainedModelBeatsUntrainedOnQError) {
  TreeModel trained(encoder_.get(), SmallConfig());
  TreeModelConfig untrained_cfg = SmallConfig();
  untrained_cfg.seed = 99;
  TreeModel untrained(encoder_.get(), untrained_cfg);
  TrainOptions options;
  options.epochs = 30;
  TrainTreeModel(&trained, *database_, train_, options);
  TreeModelEstimator trained_est("t", &trained, database_.get());
  TreeModelEstimator untrained_est("u", &untrained, database_.get());
  EXPECT_LT(MeanRootQError(&trained_est), MeanRootQError(&untrained_est));
}

TEST_F(ModelTest, NodeWiseBeatsQueryWiseOnInternalNodes) {
  TreeModel node_wise(encoder_.get(), SmallConfig());
  TreeModel query_wise(encoder_.get(), SmallConfig());
  TrainOptions options;
  options.epochs = 30;
  TrainTreeModel(&node_wise, *database_, train_, options);
  options.node_wise = false;
  TrainTreeModel(&query_wise, *database_, train_, options);
  // Compare mean q-error across ALL plan nodes of the test queries.
  auto node_qerror = [&](const TreeModel& model) {
    double total = 0.0;
    int count = 0;
    for (const auto& labeled : test_) {
      auto logical =
          qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
      auto tree = MakeEstTree(labeled.query, logical.get(), *database_,
                              &labeled.true_cards);
      auto outputs = testing::TapedForward(model, labeled.query, tree.get());
      for (const auto& out : outputs) {
        if (out.node->true_card < 0) continue;
        const double est =
            model.YToCard(static_cast<double>(out.y->value().at(0, 0)));
        total += exec::QError(est, out.node->true_card);
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(node_qerror(node_wise), node_qerror(query_wise));
}

TEST_F(ModelTest, LstmVariantTrainsToo) {
  TreeModel model(encoder_.get(), SmallConfig(/*lstm=*/true));
  TrainOptions options;
  options.epochs = 5;
  const double loss =
      TrainTreeModel(&model, *database_, train_, options).final_train_loss();
  EXPECT_LT(loss, 0.5);  // normalized-log space: far below random init
}

TEST_F(ModelTest, DistillationMatchesTeacherBehavior) {
  TreeModelConfig teacher_cfg = SmallConfig();
  teacher_cfg.dim = 32;
  teacher_cfg.embed_hidden = 32;
  teacher_cfg.out_hidden = 64;
  TreeModel teacher(encoder_.get(), teacher_cfg);
  TrainOptions options;
  options.epochs = 30;
  TrainTreeModel(&teacher, *database_, train_, options);

  TreeModel student(encoder_.get(), SmallConfig());
  DistillOptions distill;
  distill.hint_epochs = 6;
  distill.predict_epochs = 72;
  DistillTreeModel(&student, teacher, *database_, train_, distill);

  // The unit-level property of distillation is the mechanism itself: the
  // student's predictions must track the teacher's far more closely than an
  // independently-initialized model does. (Accuracy-vs-size is a full-scale
  // property measured by the Figure 20 bench.)
  TreeModelConfig fresh_cfg = SmallConfig();
  fresh_cfg.seed = 31415;
  TreeModel fresh(encoder_.get(), fresh_cfg);
  auto agreement = [&](const TreeModel& a, const TreeModel& b) {
    double total_log = 0.0;
    for (const auto& labeled : test_) {
      auto logical =
          qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
      auto tree =
          MakeEstTree(labeled.query, logical.get(), *database_, nullptr);
      total_log += std::log(
          exec::QError(a.PredictCardFast(labeled.query, tree.get()),
                       b.PredictCardFast(labeled.query, tree.get())));
    }
    return std::exp(total_log / static_cast<double>(test_.size()));
  };
  const double student_teacher = agreement(student, teacher);
  const double fresh_teacher = agreement(fresh, teacher);
  EXPECT_LT(student_teacher, 2.5)
      << "distilled student must track the teacher (fresh model baseline: "
      << fresh_teacher << ")";
}

TEST_F(ModelTest, MscnTrainsAndEstimates) {
  card::MscnConfig config;
  config.hidden = 16;
  config.log_max_card = log_max_card_;
  card::MscnModel model(&database_->catalog(), encoder_.get(), config);
  card::MscnTrainOptions options;
  options.epochs = 1;
  const double first = TrainMscn(&model, train_, options);
  options.epochs = 6;
  const double later = TrainMscn(&model, train_, options);
  EXPECT_LT(later, first);
  card::MscnEstimator estimator("MSCN", &model);
  const double q = MeanRootQError(&estimator);
  EXPECT_GT(q, 0.99);
  EXPECT_LT(q, 1e6);
}

TEST_F(ModelTest, FlowLossWeightingRuns) {
  card::MscnConfig config;
  config.hidden = 16;
  config.log_max_card = log_max_card_;
  card::MscnModel model(&database_->catalog(), encoder_.get(), config);
  card::MscnTrainOptions options;
  options.epochs = 4;
  options.cost_weighted = true;
  EXPECT_GT(TrainMscn(&model, train_, options), 0.0);
}

TEST_F(ModelTest, JoinSamplingIsNearExactWithManyWalks) {
  card::JoinSampleEstimator sampler("sample", database_.get(), 3000, 17);
  double total_q = 0.0;
  int count = 0;
  for (const auto& labeled : test_) {
    const double est =
        sampler.EstimateSubset(labeled.query, labeled.query.AllRels());
    total_q += exec::QError(est, static_cast<double>(labeled.FinalCard()));
    ++count;
  }
  EXPECT_LT(total_q / count, 3.0);
}

TEST_F(ModelTest, HybridEstimatorUsesCorrection) {
  card::JoinSampleEstimator sampler("s", database_.get(), 200, 23);
  card::MscnConfig config;
  config.hidden = 16;
  config.log_max_card = log_max_card_;
  config.extra_inputs = 1;
  card::MscnModel correction(&database_->catalog(), encoder_.get(), config);
  card::MscnTrainOptions options;
  options.epochs = 4;
  card::JoinSampleEstimator train_sampler("ts", database_.get(), 200, 23);
  options.extra_fn = [&](const qry::Query& q, qry::RelSet rels) {
    return std::vector<float>{
        static_cast<float>(correction.CardToY(train_sampler.EstimateSubset(q, rels)))};
  };
  TrainMscn(&correction, train_, options);
  card::HybridSampleEstimator hybrid("UAE*", &sampler, &correction);
  const double q = MeanRootQError(&hybrid);
  EXPECT_LT(q, 1e6);
}

TEST_F(ModelTest, LpceRRefinementUsesExecutedInformation) {
  LpceRTrainOptions options;
  options.pretrain.epochs = 8;
  options.refine_epochs = 4;
  options.prefixes_per_query = 2;
  LpceR model(encoder_.get(), SmallConfig());
  TrainLpceR(&model, *database_, train_, options);

  // Feed executed information for a test query and check refinement output
  // is a valid cardinality and the estimator machinery works end-to-end.
  const auto& labeled = test_.front();
  LpceREstimator estimator(&model, database_.get());
  // Initial estimate without observations.
  const double before =
      estimator.EstimateSubset(labeled.query, labeled.query.AllRels());
  EXPECT_GE(before, 0.0);
  // Observe the two smallest canonical nodes (a leaf then its join).
  auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  for (const auto* node : nodes) {
    if (qry::PopCount(node->rels) > 2) continue;
    auto it = labeled.true_cards.find(node->rels);
    if (it == labeled.true_cards.end()) continue;
    estimator.ObserveActual(labeled.query, node->rels,
                            static_cast<double>(it->second));
  }
  const double after =
      estimator.EstimateSubset(labeled.query, labeled.query.AllRels());
  EXPECT_GE(after, 0.0);
  estimator.ResetObservations();
  const double reset =
      estimator.EstimateSubset(labeled.query, labeled.query.AllRels());
  EXPECT_NEAR(reset, before, std::abs(before) * 1e-3 + 1e-3);
}

TEST_F(ModelTest, LpceRAblationModesWork)
{
  for (RefinerMode mode : {RefinerMode::kSingle, RefinerMode::kTwo}) {
    LpceR model(encoder_.get(), SmallConfig(), mode);
    LpceRTrainOptions options;
    options.pretrain.epochs = 3;
    options.refine_epochs = 2;
    options.prefixes_per_query = 1;
    TrainLpceR(&model, *database_, train_, options);
    LpceREstimator estimator(&model, database_.get());
    const auto& labeled = test_.front();
    // Observe one leaf.
    estimator.ObserveActual(labeled.query, 1,
                            static_cast<double>(labeled.true_cards.at(1)));
    const double est =
        estimator.EstimateSubset(labeled.query, labeled.query.AllRels());
    EXPECT_GE(est, 0.0);
  }
}

TEST_F(ModelTest, FastInferenceMatchesGraphForward) {
  // The no-autograd fast path must agree with the graph forward for SRU,
  // LSTM, and child-cards variants.
  for (bool lstm : {false, true}) {
    for (bool with_cards : {false, true}) {
      TreeModelConfig config = SmallConfig(lstm);
      config.with_child_cards = with_cards;
      config.seed = 100 + (lstm ? 1 : 0) + (with_cards ? 2 : 0);
      TreeModel tree_model(encoder_.get(), config);
      TrainOptions options;
      options.epochs = 2;
      TrainTreeModel(&tree_model, *database_, train_, options);
      for (size_t i = 0; i < 3; ++i) {
        const auto& labeled = test_[i];
        auto logical =
            qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
        auto tree = MakeEstTree(labeled.query, logical.get(), *database_,
                                &labeled.true_cards);
        const double slow =
            testing::TapedPredictCard(tree_model, labeled.query, tree.get());
        const double fast = tree_model.PredictCardFast(labeled.query, tree.get());
        EXPECT_NEAR(fast, slow, std::max(1.0, slow) * 1e-3)
            << "lstm=" << lstm << " cards=" << with_cards;
      }
    }
  }
}

TEST_F(ModelTest, MscnFastPredictMatchesGraphForward) {
  card::MscnConfig config;
  config.hidden = 16;
  config.log_max_card = log_max_card_;
  card::MscnModel mscn(&database_->catalog(), encoder_.get(), config);
  card::MscnTrainOptions options;
  options.epochs = 2;
  card::TrainMscn(&mscn, train_, options);
  for (size_t i = 0; i < 3; ++i) {
    const auto& labeled = test_[i];
    nn::Tensor y =
        testing::TapedMscnForward(mscn, labeled.query, labeled.query.AllRels());
    const double slow = mscn.YToCard(static_cast<double>(y->value().at(0, 0)));
    const double fast =
        mscn.PredictCard(labeled.query, labeled.query.AllRels());
    EXPECT_NEAR(fast, slow, std::max(1.0, slow) * 1e-3);
  }
}

TEST_F(ModelTest, LpceRFastEncodingMatchesGraph) {
  LpceR lpce_r(encoder_.get(), SmallConfig());
  LpceRTrainOptions options;
  options.pretrain.epochs = 2;
  options.refine_epochs = 1;
  TrainLpceR(&lpce_r, *database_, train_, options);
  const auto& labeled = test_.front();
  auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
  auto tree = MakeEstTree(labeled.query, logical.get(), *database_,
                          &labeled.true_cards);
  // Encode the leftmost join subtree both ways.
  const EstNode* executed = tree->left.get();
  ASSERT_NE(executed, nullptr);
  nn::Tensor slow = testing::TapedEncodeExecuted(lpce_r, labeled.query, executed);
  nn::Matrix fast = lpce_r.EncodeExecutedFast(labeled.query, executed);
  ASSERT_EQ(slow->value().cols(), fast.cols());
  for (size_t j = 0; j < fast.cols(); ++j) {
    EXPECT_NEAR(fast.at(0, j), slow->value().at(0, j), 1e-4);
  }
}

TEST_F(ModelTest, ModelSaveLoadPreservesPredictions) {
  TreeModel model(encoder_.get(), SmallConfig());
  TrainOptions options;
  options.epochs = 3;
  TrainTreeModel(&model, *database_, train_, options);
  const std::string path = ::testing::TempDir() + "/tree_model.bin";
  ASSERT_TRUE(model.params().SaveToFile(path).ok());

  TreeModelConfig cfg = SmallConfig();
  cfg.seed = 12345;  // different init; load must overwrite
  TreeModel loaded(encoder_.get(), cfg);
  ASSERT_TRUE(loaded.params().LoadFromFile(path).ok());

  const auto& labeled = test_.front();
  auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
  auto tree = MakeEstTree(labeled.query, logical.get(), *database_, nullptr);
  EXPECT_NEAR(testing::TapedPredictCard(model, labeled.query, tree.get()),
              testing::TapedPredictCard(loaded, labeled.query, tree.get()),
              1e-3);
}

}  // namespace
}  // namespace lpce::model
