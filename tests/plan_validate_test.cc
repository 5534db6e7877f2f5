// Tests for plan validation, the plan text format, per-node execution
// timing, and the validation-split training option.
#include <cmath>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "lpce/tree_model.h"
#include "optimizer/planner.h"
#include "workload/workload.h"

namespace lpce {
namespace {

class PlanValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    wk::GeneratorOptions gen;
    gen.seed = 44;
    wk::QueryGenerator generator(database_.get(), gen);
    labeled_ = generator.GenerateLabeled(1, 4, 4).front();
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  wk::LabeledQuery labeled_;
};

TEST(PlanTextTest, PinsTheTextOfEveryNodeKind) {
  // A hand-built plan over a hand-built catalog: a scan with filters (one a
  // negative literal), an index scan, a pseudo scan, a sequential scan, all
  // three joins (one with residual keys) and one executed node.
  db::Catalog catalog;
  const int32_t title = catalog.AddTable({"title", {{"id"}, {"kind_id"}}});
  const int32_t info =
      catalog.AddTable({"movie_info", {{"movie_id"}, {"info_type_id"}}});
  const int32_t companies =
      catalog.AddTable({"movie_companies", {{"movie_id"}, {"company_id"}}});
  const int32_t cast = catalog.AddTable({"cast_info", {{"movie_id"}}});
  qry::Query query;
  query.tables = {title, info, companies, cast};

  auto scan = [](exec::PhysOp op, int pos, double est) {
    auto node = std::make_unique<exec::PlanNode>();
    node->op = op;
    node->table_pos = pos;
    node->rels = qry::Bit(pos);
    node->est_card = est;
    return node;
  };
  auto join = [](exec::PhysOp op, std::unique_ptr<exec::PlanNode> outer,
                 std::unique_ptr<exec::PlanNode> inner, db::ColRef outer_key,
                 db::ColRef inner_key, double est) {
    auto node = std::make_unique<exec::PlanNode>();
    node->op = op;
    node->rels = outer->rels | inner->rels;
    node->outer = std::move(outer);
    node->inner = std::move(inner);
    node->outer_key = outer_key;
    node->inner_key = inner_key;
    node->est_card = est;
    return node;
  };

  auto info_scan = scan(exec::PhysOp::kSeqScan, 1, 1234.9);
  info_scan->filters = {{{info, 1}, qry::CmpOp::kEq, 3},
                        {{info, 0}, qry::CmpOp::kGe, -17}};
  info_scan->executed = true;
  info_scan->actual_card = 987;
  info_scan->exec_seconds = 0.0015;
  auto title_scan = scan(exec::PhysOp::kIndexScan, 0, 99.0);
  title_scan->filters = {{{title, 0}, qry::CmpOp::kLt, 100}};
  title_scan->index_col = {title, 0};
  auto pseudo = scan(exec::PhysOp::kPseudoScan, 2, 55.0);
  pseudo->table_pos = -1;
  auto left = join(exec::PhysOp::kMergeJoin, std::move(info_scan),
                   std::move(title_scan), {info, 0}, {title, 0}, 400.0);
  auto right = join(exec::PhysOp::kNestLoopJoin, std::move(pseudo),
                    scan(exec::PhysOp::kSeqScan, 3, 7.0), {companies, 0},
                    {cast, 0}, 0.4);
  auto root = join(exec::PhysOp::kHashJoin, std::move(left), std::move(right),
                   {title, 0}, {companies, 0}, 12.0);
  root->residual_keys = {{{info, 0}, {cast, 0}}};

  EXPECT_EQ(root->ToString(catalog, query),
            "HashJoin (title.id = movie_companies.movie_id) "
            "[movie_info.movie_id = cast_info.movie_id]  est=12\n"
            "  MergeJoin (movie_info.movie_id = title.id)  est=400\n"
            "    SeqScan movie_info [movie_info.info_type_id = 3] "
            "[movie_info.movie_id >= -17]  est=1234 actual=987 time=1.50ms\n"
            "    IndexScan title [title.id < 100]  est=99\n"
            "  NestLoopJoin (movie_companies.movie_id = cast_info.movie_id)"
            "  est=0\n"
            "    PseudoScan (materialized intermediate)  est=55\n"
            "    SeqScan cast_info  est=7\n");
  // `indent` shifts every line of a subtree.
  EXPECT_EQ(root->inner->inner->ToString(catalog, query, 2),
            "    SeqScan cast_info  est=7\n");
}

TEST_F(PlanValidateTest, PlannerOutputAlwaysValidates) {
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanResult result = planner.Plan(labeled_.query, &estimator);
  EXPECT_TRUE(exec::ValidatePlan(*result.plan, labeled_.query).ok());
}

TEST_F(PlanValidateTest, CanonicalPlanValidates) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  EXPECT_TRUE(exec::ValidatePlan(*plan, labeled_.query).ok());
}

TEST_F(PlanValidateTest, DetectsWrongRootCoverage) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  // Chop the root: its left child no longer covers the query.
  std::unique_ptr<exec::PlanNode> partial = std::move(plan->outer);
  EXPECT_FALSE(exec::ValidatePlan(*partial, labeled_.query).ok());
}

TEST_F(PlanValidateTest, DetectsSwappedJoinKeys) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  // Point the outer key at a column from the inner side: invalid.
  std::swap(plan->outer_key, plan->inner_key);
  // Swapping both keys together is the "flipped" (valid) orientation, so
  // corrupt one side instead.
  plan->outer_key = plan->inner_key;
  EXPECT_FALSE(exec::ValidatePlan(*plan, labeled_.query).ok());
}

TEST_F(PlanValidateTest, DetectsPseudoScanWithoutResult) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  // Replace the leftmost leaf with an empty pseudo scan.
  exec::PlanNode* node = plan.get();
  while (node->outer != nullptr) node = node->outer.get();
  node->op = exec::PhysOp::kPseudoScan;
  node->table_pos = -1;
  EXPECT_FALSE(exec::ValidatePlan(*plan, labeled_.query).ok());
}

TEST_F(PlanValidateTest, DetectsForeignFilter) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  exec::PlanNode* node = plan.get();
  while (node->outer != nullptr) node = node->outer.get();
  // A filter naming a table that is not this scan's table.
  const int other_pos = (node->table_pos + 1) % labeled_.query.num_tables();
  node->filters.push_back(
      {{labeled_.query.tables[other_pos], 0}, qry::CmpOp::kEq, 1});
  EXPECT_FALSE(exec::ValidatePlan(*plan, labeled_.query).ok());
}

TEST_F(PlanValidateTest, PerNodeTimingSumsBelowTotal) {
  auto plan = exec::BuildCanonicalHashPlan(labeled_.query);
  exec::Executor executor(database_.get(), &labeled_.query);
  WallTimer timer;
  executor.Execute(plan.get());
  const double total = timer.ElapsedSeconds();
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(static_cast<const exec::PlanNode*>(plan.get()), &nodes);
  double node_sum = 0.0;
  for (const auto* node : nodes) {
    EXPECT_TRUE(node->executed);
    EXPECT_GE(node->exec_seconds, 0.0);
    node_sum += node->exec_seconds;
  }
  // Per-node self times exclude children, so the sum is bounded by the
  // whole execution (allow slack for timer granularity).
  EXPECT_LE(node_sum, total * 1.5 + 1e-3);
}

TEST_F(PlanValidateTest, ValidationSplitTrainingRestoresBestSnapshot) {
  model::FeatureEncoder encoder(&database_->catalog(), &stats_);
  wk::GeneratorOptions gen;
  gen.seed = 52;
  gen.require_nonempty = true;
  wk::QueryGenerator generator(database_.get(), gen);
  auto train = generator.GenerateLabeled(40, 3, 5);

  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel model(&encoder, config);
  model::TrainOptions options;
  options.epochs = 8;
  options.validation_fraction = 0.2;
  options.patience = 3;
  const model::TrainStats stats =
      model::TrainTreeModel(&model, *database_, train, options);
  EXPECT_TRUE(std::isfinite(stats.final_train_loss()));
  // The restored-snapshot contract: when early stopping kept an earlier
  // epoch, the reported loss is that epoch's, not the last one trained.
  if (stats.best_epoch >= 0) {
    EXPECT_EQ(stats.final_train_loss(),
              stats.epochs[stats.best_epoch].train_loss);
  }
  // The model must produce sane estimates after the snapshot restore.
  auto logical =
      qry::BuildCanonicalTree(train[0].query, train[0].query.AllRels());
  auto tree = model::MakeEstTree(train[0].query, logical.get(), *database_,
                                 nullptr);
  const double est = model.PredictCardFast(train[0].query, tree.get());
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 0.0);
}

TEST_F(PlanValidateTest, EarlyStoppingTerminatesBeforeEpochBudget) {
  // With patience 1 and many epochs, training must not take unbounded time;
  // we verify it completes and the snapshot machinery does not corrupt
  // parameters (loss stays finite).
  model::FeatureEncoder encoder(&database_->catalog(), &stats_);
  wk::GeneratorOptions gen;
  gen.seed = 53;
  wk::QueryGenerator generator(database_.get(), gen);
  auto train = generator.GenerateLabeled(20, 3, 4);
  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel model(&encoder, config);
  model::TrainOptions options;
  options.epochs = 200;
  options.validation_fraction = 0.25;
  options.patience = 1;
  WallTimer timer;
  model::TrainTreeModel(&model, *database_, train, options);
  // 200 epochs at this size would take far longer than a few seconds; the
  // early stop keeps it quick.
  EXPECT_LT(timer.ElapsedSeconds(), 20.0);
}

}  // namespace
}  // namespace lpce
