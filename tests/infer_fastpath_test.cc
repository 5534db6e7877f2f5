// Equivalence suite for the tape-free level-batched inference path (PR 4):
// TreeModel::Infer / InferTrees must reproduce the taped oracle's forward
// (testing::TapedForward) bit-for-bit — per node, for SRU and LSTM cells, odd hidden widths,
// child-cardinality inputs, injected executed-sub-plan leaves, feature
// caches, and at every matmul thread count. Also pins the arena's
// zero-heap-allocation steady state and the batched estimator preparation.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lpce/estimators.h"
#include "nn/arena.h"
#include "nn/matrix.h"
#include "testing/taped_trainer.h"
#include "workload/workload.h"

namespace lpce::model {
namespace {

class InferFastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    encoder_ = std::make_unique<FeatureEncoder>(&database_->catalog(), &stats_);
    wk::GeneratorOptions gen;
    gen.seed = 5;
    gen.require_nonempty = true;
    wk::QueryGenerator generator(database_.get(), gen);
    queries_ = generator.GenerateLabeled(8, 2, 7);
  }

  TreeModelConfig Config(bool lstm, bool with_cards, int dim = 16,
                         int embed_hidden = 16, int out_hidden = 32) const {
    TreeModelConfig config;
    config.feature_dim = encoder_->dim();
    config.dim = dim;
    config.embed_hidden = embed_hidden;
    config.out_hidden = out_hidden;
    config.use_lstm = lstm;
    config.with_child_cards = with_cards;
    config.seed = 1 + (lstm ? 1 : 0) + (with_cards ? 2 : 0) +
                  static_cast<uint64_t>(dim);
    return config;
  }

  std::unique_ptr<EstNode> Tree(const wk::LabeledQuery& labeled,
                                bool with_labels = true) const {
    auto logical =
        qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    return MakeEstTree(labeled.query, logical.get(), *database_,
                       with_labels ? &labeled.true_cards : nullptr);
  }

  /// Per-node bitwise comparison of the taped forward against the batched
  /// tape-free Infer (via InferTrees, which shares InferManyImpl with Infer).
  void ExpectInferMatchesForward(const TreeModel& model,
                                 const qry::Query& query, const EstNode* root,
                                 bool dynamic, const char* what) {
    auto fwd = testing::TapedForward(model, query, root, dynamic);
    std::vector<std::vector<TreeModel::InferNodeOutput>> outs;
    model.InferTrees({{&query, root}}, &outs, dynamic);
    ASSERT_EQ(outs.size(), 1u) << what;
    ASSERT_EQ(outs[0].size(), fwd.size()) << what;
    for (size_t i = 0; i < fwd.size(); ++i) {
      EXPECT_EQ(outs[0][i].node, fwd[i].node) << what << " node " << i;
      const float taped_y = fwd[i].y->value().at(0, 0);
      EXPECT_EQ(outs[0][i].y, taped_y) << what << " node " << i
                                       << ": batched y must be bit-identical";
      EXPECT_EQ(outs[0][i].card,
                model.YToCard(static_cast<double>(taped_y)))
          << what << " node " << i;
    }
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::vector<wk::LabeledQuery> queries_;
};

TEST_F(InferFastPathTest, MatchesForwardBitExactlyAcrossCellsAndModes) {
  for (bool lstm : {false, true}) {
    for (bool with_cards : {false, true}) {
      TreeModel model(encoder_.get(), Config(lstm, with_cards));
      for (const auto& labeled : queries_) {
        auto labeled_tree = Tree(labeled);
        ExpectInferMatchesForward(model, labeled.query, labeled_tree.get(),
                                  /*dynamic=*/false, "static");
        if (with_cards) {
          // Unlabeled trees force the dynamic mode to consume the model's
          // own running child estimates.
          auto bare_tree = Tree(labeled, /*with_labels=*/false);
          ExpectInferMatchesForward(model, labeled.query, bare_tree.get(),
                                    /*dynamic=*/true, "dynamic");
        }
      }
    }
  }
}

TEST_F(InferFastPathTest, OddHiddenDimensionsStayBitExact) {
  // Widths that are not multiples of any vector width or unroll factor.
  for (bool lstm : {false, true}) {
    TreeModel model(encoder_.get(),
                    Config(lstm, /*with_cards=*/false, /*dim=*/13,
                           /*embed_hidden=*/7, /*out_hidden=*/9));
    for (size_t i = 0; i < 3; ++i) {
      auto tree = Tree(queries_[i]);
      ExpectInferMatchesForward(model, queries_[i].query, tree.get(),
                                /*dynamic=*/false, "odd-dims");
    }
  }
}

TEST_F(InferFastPathTest, MultiTreeBatchEqualsPerTreeInference) {
  // Nodes of different trees share level matmuls; row independence of the
  // Gemm kernel makes the composition bit-invisible.
  TreeModel model(encoder_.get(), Config(/*lstm=*/false, /*with_cards=*/false));
  std::vector<std::unique_ptr<EstNode>> trees;
  std::vector<std::pair<const qry::Query*, const EstNode*>> batch;
  for (const auto& labeled : queries_) {
    trees.push_back(Tree(labeled));
    batch.emplace_back(&labeled.query, trees.back().get());
  }
  std::vector<std::vector<TreeModel::InferNodeOutput>> batched;
  model.InferTrees(batch, &batched);
  ASSERT_EQ(batched.size(), queries_.size());
  for (size_t t = 0; t < queries_.size(); ++t) {
    auto fwd = testing::TapedForward(model, queries_[t].query, trees[t].get());
    ASSERT_EQ(batched[t].size(), fwd.size());
    for (size_t i = 0; i < fwd.size(); ++i) {
      EXPECT_EQ(batched[t][i].y, fwd[i].y->value().at(0, 0))
          << "tree " << t << " node " << i;
    }
  }
}

TEST_F(InferFastPathTest, BitExactAtEveryMatMulThreadCount) {
  TreeModel model(encoder_.get(), Config(/*lstm=*/true, /*with_cards=*/false));
  auto tree = Tree(queries_.front());
  const double batched =
      model.PredictCardFast(queries_.front().query, tree.get());
  const int prev = nn::MatMulThreads();
  for (int threads : {1, 2, 4}) {
    nn::SetMatMulThreads(threads);
    auto fwd =
        testing::TapedForward(model, queries_.front().query, tree.get());
    EXPECT_EQ(model.YToCard(static_cast<double>(fwd.back().y->value().at(0, 0))),
              batched)
        << "threads=" << threads;
  }
  nn::SetMatMulThreads(prev);
}

namespace {
/// Clone with the subtree covering `inject_rels` replaced by an injected
/// leaf, as LPCE-R refinement builds them.
std::unique_ptr<EstNode> CloneInjecting(const EstNode* node,
                                        qry::RelSet inject_rels,
                                        const nn::Matrix& injected_c,
                                        double injected_card) {
  auto copy = std::make_unique<EstNode>();
  copy->rels = node->rels;
  if (node->rels == inject_rels) {
    copy->injected_c = std::make_shared<const nn::Matrix>(injected_c);
    copy->true_card = injected_card;
    return copy;
  }
  copy->table_pos = node->table_pos;
  copy->join_idx = node->join_idx;
  copy->child_card_left = node->child_card_left;
  copy->child_card_right = node->child_card_right;
  copy->true_card = node->true_card;
  if (node->left != nullptr) {
    copy->left =
        CloneInjecting(node->left.get(), inject_rels, injected_c, injected_card);
  }
  if (node->right != nullptr) {
    copy->right = CloneInjecting(node->right.get(), inject_rels, injected_c,
                                 injected_card);
  }
  return copy;
}
}  // namespace

TEST_F(InferFastPathTest, InjectedExecutedLeavesStayBitExact) {
  Rng rng(99);
  for (bool lstm : {false, true}) {
    TreeModel model(encoder_.get(), Config(lstm, /*with_cards=*/false));
    for (size_t qi = 0; qi < 3; ++qi) {
      auto tree = Tree(queries_[qi]);
      if (tree->left == nullptr) continue;
      nn::Matrix enc(1, static_cast<size_t>(model.config().dim));
      for (size_t j = 0; j < enc.cols(); ++j) {
        enc.at(0, j) = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      }
      auto injected = CloneInjecting(tree.get(), tree->left->rels,
                                     enc, 1234.0);
      ExpectInferMatchesForward(model, queries_[qi].query, injected.get(),
                                /*dynamic=*/false, lstm ? "lstm" : "sru");
    }
  }
}

TEST_F(InferFastPathTest, FeatureCacheIsBitInvisible) {
  for (bool with_cards : {false, true}) {
    TreeModel model(encoder_.get(), Config(/*lstm=*/false, with_cards));
    const auto& labeled = queries_.front();
    auto tree = Tree(labeled);
    const nn::Matrix cache = model.BuildFeatureCache(labeled.query, tree.get());
    auto plain = testing::TapedForward(model, labeled.query, tree.get());
    auto cached = testing::TapedForward(model, labeled.query, tree.get(),
                                /*dynamic_child_cards=*/false, &cache);
    ASSERT_EQ(plain.size(), cached.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(cached[i].y->value().at(0, 0), plain[i].y->value().at(0, 0));
    }
    TreeModel::InferResult res =
        model.Infer(labeled.query, tree.get(), /*dynamic_child_cards=*/false,
                    /*sink=*/nullptr, &cache);
    EXPECT_EQ(res.root_card,
              model.YToCard(
                  static_cast<double>(plain.back().y->value().at(0, 0))));
  }
}

TEST_F(InferFastPathTest, EncodeRootFastMatchesForwardEncoding) {
  TreeModel model(encoder_.get(), Config(/*lstm=*/false, /*with_cards=*/false));
  const auto& labeled = queries_.front();
  auto tree = Tree(labeled);
  auto fwd = testing::TapedForward(model, labeled.query, tree.get());
  nn::Matrix fast = model.EncodeRootFast(labeled.query, tree.get());
  const nn::Matrix& taped = fwd.back().c->value();
  ASSERT_EQ(fast.cols(), taped.cols());
  for (size_t j = 0; j < fast.cols(); ++j) {
    EXPECT_EQ(fast.at(0, j), taped.at(0, j)) << "c[" << j << "]";
  }
}

TEST_F(InferFastPathTest, ZeroHeapAllocationsPerQueryAfterWarmup) {
  TreeModel model(encoder_.get(), Config(/*lstm=*/false, /*with_cards=*/false));
  std::vector<std::unique_ptr<EstNode>> trees;
  for (const auto& labeled : queries_) trees.push_back(Tree(labeled));
  // Warmup: the arena learns the high-water mark of the largest query and
  // the per-thread workspace vectors reach steady capacity.
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      model.PredictCardFast(queries_[i].query, trees[i].get());
    }
  }
  const size_t warm = nn::InferArena::ThreadLocal().heap_allocations();
  for (int pass = 0; pass < 5; ++pass) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      model.PredictCardFast(queries_[i].query, trees[i].get());
    }
  }
  EXPECT_EQ(nn::InferArena::ThreadLocal().heap_allocations(), warm)
      << "steady-state inference must not touch the heap (arena contract)";
}

/// Generated queries with 1-8 joins, every other one with 1-3 extra edges
/// between random table pairs: parallel edges and cycles, where one join
/// edge drives chain steps in several levels of the subset pass.
std::vector<qry::Query> ShapedQueries(const db::Database* database) {
  wk::GeneratorOptions gen;
  gen.seed = 17;
  wk::QueryGenerator generator(database, gen);
  Rng rng(23);
  std::vector<qry::Query> queries;
  for (int joins = 1; joins <= 8; ++joins) {
    for (int i = 0; i < 2; ++i) {
      qry::Query query = generator.Generate(joins);
      if (i == 1) {
        const int extra = 1 + static_cast<int>(rng.Next() % 3);
        for (int e = 0; e < extra; ++e) {
          const int a = static_cast<int>(rng.Next() % query.num_tables());
          const int b = static_cast<int>(rng.Next() % query.num_tables());
          if (a == b) continue;
          query.joins.push_back({{query.tables[a], 0}, {query.tables[b], 0}});
        }
      }
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

TEST_F(InferFastPathTest, BatchedPrepareQueryMatchesTreeInference) {
  std::vector<qry::Query> queries = ShapedQueries(database_.get());
  for (size_t qi = 0; qi < 3; ++qi) queries.push_back(queries_[qi].query);
  for (bool lstm : {false, true}) {
    TreeModel model(encoder_.get(), Config(lstm, /*with_cards=*/false));
    TreeModelEstimator estimator("lpce", &model, database_.get());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const qry::Query& query = queries[qi];
      estimator.PrepareQuery(query);
      const qry::RelSet all = query.AllRels();
      int checked = 0;
      for (qry::RelSet rels = 1; rels <= all; ++rels) {
        if (!query.IsConnected(rels)) continue;
        auto logical = qry::BuildCanonicalTree(query, rels);
        auto tree = MakeEstTree(query, logical.get(), *database_, nullptr);
        const double direct = model.PredictCardFast(query, tree.get());
        // The subset pass shares every per-node kernel sequence with
        // full-tree inference, so prepared estimates match bit-for-bit.
        EXPECT_EQ(estimator.EstimateSubset(query, rels), direct)
            << (lstm ? "lstm" : "sru") << " query " << qi << " ("
            << query.num_joins() << " joins) rels " << rels;
        ++checked;
      }
      EXPECT_GE(checked, query.num_tables());
    }
  }
}

}  // namespace
}  // namespace lpce::model
