// The parallel substrate's determinism contract: the matrix products and a
// full LPCE-I training epoch must produce bit-identical results at every pool
// size (1 vs N), and an engine query's deterministic trace must not depend on
// the pool size. Chunk partitioning is static and per-output accumulation
// order matches the sequential loops, so this is an exact equality test, not
// a tolerance test.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "lpce/tree_model.h"
#include "nn/matrix.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { common::SetGlobalPoolSize(8); }
  void TearDown() override { common::SetGlobalPoolSize(0); }
};

TEST_F(ParallelDeterminismTest, MatrixProductsIdenticalAcrossThreadCaps) {
  Rng rng(29);
  nn::Matrix a(300, 170), b(170, 220), c(300, 220);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
  }
  for (size_t i = 0; i < c.size(); ++i) {
    c.data()[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
  }
  nn::SetMatMulThreads(1);
  const nn::Matrix mm1 = a.MatMul(b);
  const nn::Matrix tm1 = a.TransposeMatMul(c);
  const nn::Matrix mt1 = a.MatMulTranspose(a);
  for (int threads : {2, 4, 8, 0}) {
    nn::SetMatMulThreads(threads);
    EXPECT_EQ(a.MatMul(b).storage(), mm1.storage()) << threads;
    EXPECT_EQ(a.TransposeMatMul(c).storage(), tm1.storage()) << threads;
    EXPECT_EQ(a.MatMulTranspose(a).storage(), mt1.storage()) << threads;
  }
  nn::SetMatMulThreads(0);
}

/// Underestimates joins so checkpoints trip (same adversary as
/// engine_test.cc) — exercises the multi-round trace paths.
class UnderEstimator : public card::CardinalityEstimator {
 public:
  explicit UnderEstimator(card::CardinalityEstimator* base) : base_(base) {}
  std::string name() const override { return "under"; }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    const double base = base_->EstimateSubset(query, rels);
    return qry::PopCount(rels) > 1 ? std::max(1.0, base / 1e4) : base;
  }

 private:
  card::CardinalityEstimator* base_;
};

TEST_F(ParallelDeterminismTest, EngineTraceIdenticalAcrossPoolSizes) {
  // The deterministic trace JSON — spans, cardinalities, q-errors, plan
  // costs, re-optimization decisions — must be byte-identical at every pool
  // size; only the kFull wall-clock fields may differ.
  db::SynthImdbOptions opts;
  opts.scale = 0.04;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  wk::GeneratorOptions gen;
  gen.seed = 31;
  wk::QueryGenerator generator(database.get(), gen);
  auto workload = generator.GenerateLabeled(4, 3, 6);

  auto traces_with = [&](int pool_size) {
    common::SetGlobalPoolSize(pool_size);
    card::HistogramEstimator histogram(&stats);
    UnderEstimator under(&histogram);
    eng::Engine engine(database.get(), opt::CostModel{});
    eng::RunConfig config;
    config.enable_reopt = true;
    config.qerror_threshold = 10.0;
    std::vector<std::string> jsons;
    for (const auto& labeled : workload) {
      eng::RunStats run = engine.RunQuery(labeled.query, &under, nullptr, config);
      jsons.push_back(run.trace->ToJson(eng::TraceJsonMode::kDeterministic));
    }
    return jsons;
  };

  const std::vector<std::string> reference = traces_with(1);
  for (int pool_size : {2, 4}) {
    const std::vector<std::string> traces = traces_with(pool_size);
    for (size_t q = 0; q < reference.size(); ++q) {
      EXPECT_EQ(traces[q], reference[q])
          << "query " << q << " at pool size " << pool_size << ":\n"
          << eng::DiffTraceJson(reference[q], traces[q]);
    }
  }
}

TEST_F(ParallelDeterminismTest, TrainingEpochIdenticalAcrossPoolSizes) {
  db::SynthImdbOptions opts;
  opts.scale = 0.03;
  auto database = db::BuildSynthImdb(opts);
  stats::DatabaseStats stats;
  stats.Build(*database);
  model::FeatureEncoder encoder(&database->catalog(), &stats);

  wk::GeneratorOptions gen;
  gen.seed = 5;
  gen.require_nonempty = true;
  wk::QueryGenerator generator(database.get(), gen);
  auto train = generator.GenerateLabeled(60, 3, 6);

  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  config.seed = 7;

  auto train_with = [&](int threads) {
    auto model = std::make_unique<model::TreeModel>(&encoder, config);
    model::TrainOptions options;
    options.epochs = 1;
    options.seed = 99;
    options.num_threads = threads;
    TrainTreeModel(model.get(), *database, train, options);
    return model;
  };

  auto m1 = train_with(1);
  auto mn = train_with(8);
  for (const auto& name : m1->params().names()) {
    const nn::Matrix& v1 = m1->params().Get(name)->value();
    const nn::Matrix& vn = mn->params().Get(name)->value();
    ASSERT_EQ(v1.storage(), vn.storage()) << "param " << name;
  }
}

}  // namespace
}  // namespace lpce
