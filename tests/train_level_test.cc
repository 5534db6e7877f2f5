// The explicit-backward trainers against the taped oracle (tests/testing/
// taped_trainer.h): after every Adam step the parameters must be equal bit
// for bit, and so must every epoch's loss, gradient norm and validation
// metrics. Covers SRU and LSTM (TLSTM, LPCE-T) models: both loss shapes,
// unlabelled nodes and skipped trees, child-cardinality inputs, a
// validation split with best-epoch restore, both distillation stages,
// LPCE-R stage 2 (kFull and kTwo); and MSCN, Flow-Loss and the hybrid
// correction net; at matmul thread caps 1 and 4.
#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "card/mscn.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"
#include "testing/taped_trainer.h"
#include "workload/workload.h"

namespace lpce::model {
namespace {

/// Every parameter value of `stores`, concatenated in name order.
std::vector<float> Snapshot(const std::vector<const nn::ParamStore*>& stores) {
  std::vector<float> out;
  for (const nn::ParamStore* store : stores) {
    for (const auto& name : store->names()) {
      const nn::Matrix& m = store->Get(name)->value();
      out.insert(out.end(), m.data(), m.data() + m.size());
    }
  }
  return out;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectSameSteps(const std::vector<std::vector<float>>& level,
                     const std::vector<std::vector<float>>& taped) {
  ASSERT_EQ(level.size(), taped.size());
  ASSERT_FALSE(level.empty());
  for (size_t i = 0; i < level.size(); ++i) {
    ASSERT_TRUE(SameBits(level[i], taped[i])) << "Adam step " << i;
  }
}

void ExpectSameStats(const TrainStats& level, const TrainStats& taped) {
  ASSERT_EQ(level.epochs.size(), taped.epochs.size());
  EXPECT_EQ(level.best_epoch, taped.best_epoch);
  EXPECT_EQ(level.early_stopped, taped.early_stopped);
  for (size_t e = 0; e < level.epochs.size(); ++e) {
    const EpochStats& a = level.epochs[e];
    const EpochStats& b = taped.epochs[e];
    EXPECT_EQ(a.stage, b.stage) << "epoch " << e;
    EXPECT_EQ(a.samples, b.samples) << "epoch " << e;
    EXPECT_EQ(a.train_loss, b.train_loss) << "epoch " << e;
    EXPECT_EQ(a.grad_norm, b.grad_norm) << "epoch " << e;
    EXPECT_EQ(a.validation_loss, b.validation_loss) << "epoch " << e;
    EXPECT_EQ(a.val_qerror_mean, b.val_qerror_mean) << "epoch " << e;
    EXPECT_EQ(a.val_qerror_median, b.val_qerror_median) << "epoch " << e;
    EXPECT_EQ(a.val_qerror_p95, b.val_qerror_p95) << "epoch " << e;
    EXPECT_EQ(a.is_best, b.is_best) << "epoch " << e;
  }
}

class TrainLevelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    encoder_ = std::make_unique<FeatureEncoder>(&database_->catalog(), &stats_);
    wk::GeneratorOptions gen;
    gen.seed = 9;
    gen.require_nonempty = true;
    wk::QueryGenerator generator(database_.get(), gen);
    // 45 queries: one full mini-batch of 32 and a trailing partial one.
    train_ = generator.GenerateLabeled(45, 2, 6);
    log_max_card_ = std::log1p(static_cast<double>(wk::MaxCardinality(train_)));
    // Unlabelled nodes: drop every third label; query 0 loses all of them
    // (skipped by either loss) and query 1 its root's (skipped query-wise).
    sparse_ = train_;
    for (size_t i = 0; i < sparse_.size(); ++i) {
      auto& cards = sparse_[i].true_cards;
      size_t k = 0;
      for (auto it = cards.begin(); it != cards.end();) {
        const bool drop = i == 0 || (k++ + i) % 3 == 0 ||
                          (i == 1 && it->first == sparse_[i].query.AllRels());
        it = drop ? cards.erase(it) : std::next(it);
      }
    }
  }

  TreeModelConfig Config(int dim, uint64_t seed, bool lstm = false) const {
    TreeModelConfig config;
    config.use_lstm = lstm;
    config.feature_dim = encoder_->dim();
    config.dim = dim;
    config.embed_hidden = dim + 4;
    config.out_hidden = 2 * dim;
    config.log_max_card = log_max_card_;
    config.seed = seed;
    return config;
  }

  int threads() const { return GetParam(); }

  /// Trains two same-seeded models, one per trainer, recording the
  /// parameters after every Adam step. Returns the level trainer's stats.
  TrainStats CompareTreeModel(const TreeModelConfig& config,
                        const std::vector<wk::LabeledQuery>& train,
                        TrainOptions options) {
    options.num_threads = threads();
    TreeModel level(encoder_.get(), config);
    TreeModel taped(encoder_.get(), config);
    std::vector<std::vector<float>> level_steps, taped_steps;
    options.after_step = [&] {
      level_steps.push_back(Snapshot({&level.params()}));
    };
    const TrainStats level_stats =
        TrainTreeModel(&level, *database_, train, options);
    options.after_step = [&] {
      taped_steps.push_back(Snapshot({&taped.params()}));
    };
    const TrainStats taped_stats =
        testing::TapedTrainTreeModel(&taped, *database_, train, options);
    ExpectSameSteps(level_steps, taped_steps);
    ExpectSameStats(level_stats, taped_stats);
    EXPECT_TRUE(SameBits(Snapshot({&level.params()}),
                         Snapshot({&taped.params()})));
    return level_stats;
  }

  /// LPCE-R, both stages, for kFull and kTwo.
  void CompareLpceR(bool lstm);

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::vector<wk::LabeledQuery> train_, sparse_;
  double log_max_card_ = 20.0;
};

TEST_P(TrainLevelTest, TeacherNodeWise) {
  TrainOptions options;
  options.epochs = 2;
  CompareTreeModel(Config(24, 1), train_, options);
}

TEST_P(TrainLevelTest, StudentQueryWise) {
  TrainOptions options;
  options.epochs = 2;
  options.node_wise = false;
  CompareTreeModel(Config(12, 2), train_, options);
}

TEST_P(TrainLevelTest, WithChildCards) {
  TreeModelConfig config = Config(16, 3);
  config.with_child_cards = true;
  TrainOptions options;
  options.epochs = 2;
  CompareTreeModel(config, train_, options);
}

TEST_P(TrainLevelTest, UnlabelledNodesAndSkippedTrees) {
  for (const bool node_wise : {true, false}) {
    SCOPED_TRACE(node_wise ? "node-wise" : "query-wise");
    TrainOptions options;
    options.epochs = 2;
    options.node_wise = node_wise;
    const TrainStats stats = CompareTreeModel(Config(12, 4), sparse_, options);
    EXPECT_LT(stats.epochs[0].samples, static_cast<int>(sparse_.size()));
  }
}

TEST_P(TrainLevelTest, ValidationRestoresBestEpoch) {
  TrainOptions options;
  options.epochs = 4;
  options.lr = 3e-2f;  // large steps, so validation loss moves both ways
  options.validation_fraction = 0.25;
  options.patience = 2;
  const TrainStats stats = CompareTreeModel(Config(12, 5), train_, options);
  // The restored snapshot is an earlier epoch's, not the last one's.
  EXPECT_GE(stats.best_epoch, 0);
  EXPECT_LT(stats.best_epoch, static_cast<int>(stats.epochs.size()) - 1);
}

TEST_P(TrainLevelTest, DistillationBothStages) {
  TreeModel teacher(encoder_.get(), Config(20, 6));
  TrainOptions teacher_options;
  teacher_options.epochs = 1;
  TrainTreeModel(&teacher, *database_, sparse_, teacher_options);
  DistillOptions options;
  options.hint_epochs = 2;
  options.predict_epochs = 2;
  options.num_threads = threads();
  TreeModel level(encoder_.get(), Config(12, 7));
  TreeModel taped(encoder_.get(), Config(12, 7));
  std::vector<std::vector<float>> level_steps, taped_steps;
  options.after_step = [&] { level_steps.push_back(Snapshot({&level.params()})); };
  const TrainStats level_stats =
      DistillTreeModel(&level, teacher, *database_, sparse_, options);
  options.after_step = [&] { taped_steps.push_back(Snapshot({&taped.params()})); };
  const TrainStats taped_stats = testing::TapedDistillTreeModel(
      &taped, teacher, *database_, sparse_, options);
  ExpectSameSteps(level_steps, taped_steps);
  ExpectSameStats(level_stats, taped_stats);
}

TEST_P(TrainLevelTest, LpceRStageTwo) { CompareLpceR(/*lstm=*/false); }

void TrainLevelTest::CompareLpceR(bool lstm) {
  for (const RefinerMode mode : {RefinerMode::kFull, RefinerMode::kTwo}) {
    SCOPED_TRACE(mode == RefinerMode::kFull ? "kFull" : "kTwo");
    LpceR level(encoder_.get(), Config(12, 8, lstm), mode);
    LpceR taped(encoder_.get(), Config(12, 8, lstm), mode);
    auto stores = [&](LpceR& r) {
      std::vector<const nn::ParamStore*> out = {&r.cardinality().params(),
                                                &r.refine().params()};
      if (mode == RefinerMode::kFull) {
        out.push_back(&r.content().params());
        out.push_back(&r.connect_params());
      }
      return out;
    };
    LpceRTrainOptions options;
    options.pretrain.epochs = 1;
    options.pretrain.num_threads = threads();
    options.refine_epochs = 2;
    options.prefixes_per_query = 3;
    std::vector<std::vector<float>> level_steps, taped_steps;
    options.after_step = [&] { level_steps.push_back(Snapshot(stores(level))); };
    options.pretrain.after_step = options.after_step;
    const TrainStats level_stats =
        TrainLpceR(&level, *database_, sparse_, options);
    options.after_step = [&] { taped_steps.push_back(Snapshot(stores(taped))); };
    options.pretrain.after_step = options.after_step;
    const TrainStats taped_stats =
        testing::TapedTrainLpceR(&taped, *database_, sparse_, options);
    ExpectSameSteps(level_steps, taped_steps);
    ExpectSameStats(level_stats, taped_stats);
  }
}

// TLSTM shape: LSTM cell, query-wise loss.
TEST_P(TrainLevelTest, TlstmQueryWise) {
  TrainOptions options;
  options.epochs = 2;
  options.node_wise = false;
  CompareTreeModel(Config(12, 11, /*lstm=*/true), train_, options);
}

// LPCE-T shape: LSTM cell, node-wise loss.
TEST_P(TrainLevelTest, LpceTNodeWise) {
  TrainOptions options;
  options.epochs = 2;
  CompareTreeModel(Config(16, 12, /*lstm=*/true), train_, options);
}

TEST_P(TrainLevelTest, LstmWithChildCards) {
  TreeModelConfig config = Config(12, 13, /*lstm=*/true);
  config.with_child_cards = true;
  TrainOptions options;
  options.epochs = 2;
  CompareTreeModel(config, train_, options);
}

TEST_P(TrainLevelTest, LstmUnlabelledNodesAndSkippedTrees) {
  for (const bool node_wise : {true, false}) {
    SCOPED_TRACE(node_wise ? "node-wise" : "query-wise");
    TrainOptions options;
    options.epochs = 2;
    options.node_wise = node_wise;
    const TrainStats stats =
        CompareTreeModel(Config(12, 14, /*lstm=*/true), sparse_, options);
    EXPECT_LT(stats.epochs[0].samples, static_cast<int>(sparse_.size()));
  }
}

TEST_P(TrainLevelTest, LstmValidationRestoresBestEpoch) {
  TrainOptions options;
  options.epochs = 4;
  options.lr = 3e-2f;
  options.validation_fraction = 0.25;
  options.patience = 2;
  const TrainStats stats =
      CompareTreeModel(Config(12, 5, /*lstm=*/true), train_, options);
  EXPECT_GE(stats.best_epoch, 0);
  EXPECT_LT(stats.best_epoch, static_cast<int>(stats.epochs.size()) - 1);
}

// An LSTM student distilled in both stages, from an SRU and an LSTM teacher.
TEST_P(TrainLevelTest, LstmStudentDistillation) {
  for (const bool lstm_teacher : {false, true}) {
    SCOPED_TRACE(lstm_teacher ? "LSTM teacher" : "SRU teacher");
    TreeModel teacher(encoder_.get(), Config(20, 16, lstm_teacher));
    TrainOptions teacher_options;
    teacher_options.epochs = 1;
    TrainTreeModel(&teacher, *database_, sparse_, teacher_options);
    DistillOptions options;
    options.hint_epochs = 2;
    options.predict_epochs = 2;
    options.num_threads = threads();
    TreeModel level(encoder_.get(), Config(12, 17, /*lstm=*/true));
    TreeModel taped(encoder_.get(), Config(12, 17, /*lstm=*/true));
    std::vector<std::vector<float>> level_steps, taped_steps;
    options.after_step = [&] {
      level_steps.push_back(Snapshot({&level.params()}));
    };
    const TrainStats level_stats =
        DistillTreeModel(&level, teacher, *database_, sparse_, options);
    options.after_step = [&] {
      taped_steps.push_back(Snapshot({&taped.params()}));
    };
    const TrainStats taped_stats = testing::TapedDistillTreeModel(
        &taped, teacher, *database_, sparse_, options);
    ExpectSameSteps(level_steps, taped_steps);
    ExpectSameStats(level_stats, taped_stats);
  }
}

TEST_P(TrainLevelTest, LstmLpceRStageTwo) {
  CompareLpceR(/*lstm=*/true);
}

/// Trains two same-seeded MSCN models, one per trainer, recording the
/// parameters after every Adam step; returns both final losses.
class TrainMscnTest : public TrainLevelTest {
 protected:
  void CompareMscn(card::MscnConfig config, card::MscnTrainOptions options) {
    config.log_max_card = log_max_card_;
    card::MscnModel level(&database_->catalog(), encoder_.get(), config);
    card::MscnModel taped(&database_->catalog(), encoder_.get(), config);
    const int prev = nn::MatMulThreads();
    nn::SetMatMulThreads(threads());
    std::vector<std::vector<float>> level_steps, taped_steps;
    const double level_loss =
        card::TrainMscn(&level, train_, options, [&] {
          level_steps.push_back(Snapshot({&level.params()}));
        });
    const double taped_loss =
        testing::TapedTrainMscn(&taped, train_, options, [&] {
          taped_steps.push_back(Snapshot({&taped.params()}));
        });
    nn::SetMatMulThreads(prev);
    ExpectSameSteps(level_steps, taped_steps);
    // Every sample's loss is bit-equal; the epoch mean's division may
    // compile to a reciprocal multiply under -ffast-math in one trainer and
    // not the other, so the means agree to an ulp.
    EXPECT_DOUBLE_EQ(level_loss, taped_loss);
    for (const auto& labeled : train_) {
      const qry::RelSet all = labeled.query.AllRels();
      const std::vector<float> extra(
          static_cast<size_t>(config.extra_inputs), 0.25f);
      const nn::Tensor y = testing::TapedMscnForward(level, labeled.query,
                                                     all, extra);
      EXPECT_EQ(level.PredictCard(labeled.query, all, extra),
                level.YToCard(static_cast<double>(y->value().at(0, 0))));
    }
  }
};

TEST_P(TrainMscnTest, Mscn) {
  card::MscnConfig config;
  config.hidden = 16;
  card::MscnTrainOptions options;
  options.epochs = 2;
  options.batch_size = 48;  // several full batches and a trailing partial one
  CompareMscn(config, options);
}

TEST_P(TrainMscnTest, FlowLossCostWeighted) {
  card::MscnConfig config;
  config.hidden = 12;
  config.seed = 10;
  card::MscnTrainOptions options;
  options.epochs = 2;
  options.batch_size = 48;
  options.cost_weighted = true;
  CompareMscn(config, options);
}

TEST_P(TrainMscnTest, HybridExtraInputs) {
  card::MscnConfig config;
  config.hidden = 12;
  config.seed = 11;
  config.extra_inputs = 2;
  card::MscnTrainOptions options;
  options.epochs = 2;
  options.batch_size = 48;
  options.extra_fn = [](const qry::Query& query, qry::RelSet rels) {
    return std::vector<float>{
        static_cast<float>(qry::PopCount(rels)) /
            static_cast<float>(query.num_tables()),
        static_cast<float>(query.JoinsWithin(rels).size()) / 8.0f};
  };
  CompareMscn(config, options);
}

INSTANTIATE_TEST_SUITE_P(MatMulThreads, TrainMscnTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(MatMulThreads, TrainLevelTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lpce::model
