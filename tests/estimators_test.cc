// Tests for the LPCE estimator adapters: the LpceREstimator's executed-tree
// reconstruction from bottom-up observations, its unit-tree assembly for
// mixed subsets, its round pass (bit-identical to the per-subset chain), and
// TreeModelEstimator consistency.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "lpce/estimators.h"
#include "workload/workload.h"

namespace lpce::model {
namespace {

class EstimatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    encoder_ = std::make_unique<FeatureEncoder>(&database_->catalog(), &stats_);

    wk::GeneratorOptions gen;
    gen.seed = 15;
    gen.require_nonempty = true;
    wk::QueryGenerator generator(database_.get(), gen);
    train_ = generator.GenerateLabeled(30, 4, 6);
    labeled_ = train_.back();

    config_.feature_dim = encoder_->dim();
    config_.dim = 16;
    config_.embed_hidden = 16;
    config_.out_hidden = 32;
    config_.log_max_card =
        std::log1p(static_cast<double>(wk::MaxCardinality(train_)));
    lpce_r_ = std::make_unique<LpceR>(encoder_.get(), config_);
    LpceRTrainOptions options;
    options.pretrain.epochs = 3;
    options.refine_epochs = 2;
    options.prefixes_per_query = 2;
    TrainLpceR(lpce_r_.get(), *database_, train_, options);
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::vector<wk::LabeledQuery> train_;
  wk::LabeledQuery labeled_;
  TreeModelConfig config_;
  std::unique_ptr<LpceR> lpce_r_;
};

TEST_F(EstimatorsTest, ObservationsMergeBottomUp) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  // Observe leaves then their join, in execution (post-order) order.
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  // First three post-order nodes of a left-deep tree: leaf, leaf, join.
  ASSERT_GE(nodes.size(), 3u);
  ASSERT_TRUE(nodes[0]->is_leaf());
  ASSERT_TRUE(nodes[1]->is_leaf());
  ASSERT_FALSE(nodes[2]->is_leaf());
  for (int i = 0; i < 3; ++i) {
    estimator.ObserveActual(
        labeled_.query, nodes[i]->rels,
        static_cast<double>(labeled_.true_cards.at(nodes[i]->rels)));
  }
  // Estimating any superset must work (the join root is now one unit).
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_GE(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, ObservedSubsetsInfluenceEstimates) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  const double before =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  for (const auto* node : nodes) {
    if (node->rels == labeled_.query.AllRels()) continue;
    estimator.ObserveActual(
        labeled_.query, node->rels,
        static_cast<double>(labeled_.true_cards.at(node->rels)));
  }
  const double after =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  // With everything but the root executed, the refined estimate should not
  // be identical to the cold estimate (the injected encoding changes the
  // computation) — and must stay valid.
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_GE(after, 0.0);
  EXPECT_NE(after, before);
}

TEST_F(EstimatorsTest, DuplicateObservationsAreIdempotent) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  estimator.ObserveActual(labeled_.query, 1, 100.0);
  estimator.ObserveActual(labeled_.query, 1, 100.0);  // duplicate: no effect
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, OutOfOrderObservationFallsBackGracefully) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  // Observe a 3-table subset without its children having been observed:
  // the estimator synthesizes a canonical tree instead of crashing.
  qry::RelSet rels = 0;
  for (qry::RelSet s = 1; s <= labeled_.query.AllRels(); ++s) {
    if (qry::PopCount(s) == 3 && labeled_.query.IsConnected(s)) {
      rels = s;
      break;
    }
  }
  ASSERT_NE(rels, 0u);
  estimator.ObserveActual(labeled_.query, rels, 500.0);
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, ResetClearsState) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  const double cold =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  estimator.ObserveActual(labeled_.query, 1, 42.0);
  estimator.ResetObservations();
  EXPECT_DOUBLE_EQ(
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels()), cold);
}

TEST_F(EstimatorsTest, CloneEstTreePreservesStructure) {
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  auto tree = MakeEstTree(labeled_.query, logical.get(), *database_,
                          &labeled_.true_cards);
  auto copy = CloneEstTree(tree.get());
  std::function<void(const EstNode*, const EstNode*)> compare =
      [&](const EstNode* a, const EstNode* b) {
        ASSERT_EQ(a->rels, b->rels);
        EXPECT_EQ(a->table_pos, b->table_pos);
        EXPECT_EQ(a->join_idx, b->join_idx);
        EXPECT_DOUBLE_EQ(a->true_card, b->true_card);
        ASSERT_EQ(a->left == nullptr, b->left == nullptr);
        ASSERT_EQ(a->right == nullptr, b->right == nullptr);
        if (a->left != nullptr) compare(a->left.get(), b->left.get());
        if (a->right != nullptr) compare(a->right.get(), b->right.get());
      };
  compare(tree.get(), copy.get());
}

TEST_F(EstimatorsTest, BatchedPrepareMatchesLazyEstimates) {
  // The Sec. 6.1 batched preparation must agree exactly with per-subset
  // canonical-tree inference for every connected subset.
  TreeModelEstimator lazy("lazy", &lpce_r_->refine(), database_.get());
  TreeModelEstimator batched("batched", &lpce_r_->refine(), database_.get());
  for (const auto& labeled : {train_.front(), train_.back()}) {
    batched.PrepareQuery(labeled.query);
    for (qry::RelSet rels = 1; rels <= labeled.query.AllRels(); ++rels) {
      if (!labeled.query.IsConnected(rels)) continue;
      const double a = lazy.EstimateSubset(labeled.query, rels);
      const double b = batched.EstimateSubset(labeled.query, rels);
      EXPECT_NEAR(a, b, std::max(1.0, a) * 1e-4) << "rels=" << rels;
    }
  }
}

TEST_F(EstimatorsTest, BatchedPrepareInvalidatedByDifferentQuery) {
  TreeModelEstimator estimator("x", &lpce_r_->refine(), database_.get());
  estimator.PrepareQuery(train_.front().query);
  // A different query must not read the stale cache.
  const auto& other = train_[1];
  TreeModelEstimator fresh("y", &lpce_r_->refine(), database_.get());
  EXPECT_NEAR(estimator.EstimateSubset(other.query, other.query.AllRels()),
              fresh.EstimateSubset(other.query, other.query.AllRels()), 1e-6);
}

/// `query` with one predicate literal moved so that `differs` holds: the
/// same tables, joins and predicate count — the shape the per-query caches
/// used to key on. Fails the test if no nearby literal changes anything.
template <typename Differs>
void MoveOneLiteral(qry::Query* query, Differs differs) {
  ASSERT_FALSE(query->predicates.empty());
  const int64_t original = query->predicates[0].value;
  for (int64_t delta : {1, -1, 10, -10, 100, -100, 1000, -1000, 100000}) {
    query->predicates[0].value = original + delta;
    if (differs()) return;
  }
  FAIL() << "no literal changes the estimates";
}

TEST_F(EstimatorsTest, PreparedCacheIsKeyedOnLiterals) {
  // Q2 differs from the prepared Q1 only in a literal, in the same object:
  // estimating it must run the unprepared path, exactly as an estimator
  // that was never prepared does.
  qry::Query query = labeled_.query;
  TreeModelEstimator estimator("x", &lpce_r_->refine(), database_.get());
  estimator.PrepareQuery(query);
  TreeModelEstimator fresh("y", &lpce_r_->refine(), database_.get());
  const double q1_card = fresh.EstimateSubset(query, query.AllRels());
  MoveOneLiteral(&query, [&] {
    return fresh.EstimateSubset(query, query.AllRels()) != q1_card;
  });
  for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
    if (!query.IsConnected(rels)) continue;
    EXPECT_EQ(estimator.EstimateSubset(query, rels),
              fresh.EstimateSubset(query, rels))
        << "rels=" << rels;
  }
}

TEST_F(EstimatorsTest, RoundCacheIsKeyedOnLiterals) {
  // After a round on Q1, the same query object edited to Q2 (one literal
  // moved) must read a fresh round pass, bit for bit a freshly prepared
  // estimator's answer on Q2.
  qry::Query query = labeled_.query;
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  estimator.PrepareQuery(query);
  const double q1_card = estimator.EstimateSubset(query, query.AllRels());
  MoveOneLiteral(&query, [&] {
    LpceREstimator probe(lpce_r_.get(), database_.get());
    probe.PrepareQuery(query);
    return probe.EstimateSubset(query, query.AllRels()) != q1_card;
  });
  LpceREstimator fresh(lpce_r_.get(), database_.get());
  fresh.PrepareQuery(query);
  for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
    if (!query.IsConnected(rels)) continue;
    EXPECT_EQ(estimator.EstimateSubset(query, rels),
              fresh.EstimateSubset(query, rels))
        << "rels=" << rels;
  }
}

TEST_F(EstimatorsTest, TreeModelEstimatorIsDeterministic) {
  TreeModelEstimator estimator("x", &lpce_r_->refine(), database_.get());
  const double a =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  const double b =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_DOUBLE_EQ(a, b);
}

// ---- LPCE-R round pass vs the per-subset chain ----

/// The refiner's executed roots as the engine drives them: the newest
/// observation replaces every root it intersects.
void TrackObservation(qry::RelSet rels, std::set<qry::RelSet>* roots) {
  for (auto it = roots->begin(); it != roots->end();) {
    it = (*it & rels) != 0 ? roots->erase(it) : std::next(it);
  }
  roots->insert(rels);
}

/// An engine-like observation sequence: each step finishes a base table not
/// yet observed or joins two current roots that share an edge, until `steps`
/// observations were made or one root covers the query. Starts from no
/// roots, as the engine's plan does after a restart.
std::vector<qry::RelSet> RandomPlanObservations(const qry::Query& query,
                                                Rng* rng, int steps) {
  std::vector<qry::RelSet> observations;
  std::vector<qry::RelSet> roots;
  qry::RelSet scanned = 0;
  while (static_cast<int>(observations.size()) < steps &&
         !(roots.size() == 1 && roots[0] == query.AllRels())) {
    std::vector<qry::RelSet> moves;
    for (int pos = 0; pos < query.num_tables(); ++pos) {
      if (!qry::Contains(scanned, pos)) moves.push_back(qry::Bit(pos));
    }
    for (size_t i = 0; i < roots.size(); ++i) {
      for (size_t j = i + 1; j < roots.size(); ++j) {
        if (!query.JoinsBetween(roots[i], roots[j]).empty()) {
          moves.push_back(roots[i] | roots[j]);
        }
      }
    }
    const qry::RelSet move = moves[rng->Uniform(moves.size())];
    if (qry::PopCount(move) == 1) scanned |= move;
    std::erase_if(roots, [&](qry::RelSet r) { return (r & move) != 0; });
    roots.push_back(move);
    observations.push_back(move);
  }
  return observations;
}

/// Every estimable subset (connected, not an executed root, which the
/// engine's overlay answers) must carry the same bits from the round pass as
/// from the per-subset chain.
void ExpectRoundPassMatchesChain(LpceREstimator* pass, LpceREstimator* chain,
                                 const qry::Query& query,
                                 const std::set<qry::RelSet>& roots,
                                 const std::string& context) {
  for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
    if (!query.IsConnected(rels) || roots.count(rels) > 0) continue;
    EXPECT_EQ(pass->EstimateSubset(query, rels),
              chain->EstimateSubsetChain(query, rels))
        << context << " rels=" << rels;
  }
}

class RoundPassTest : public EstimatorsTest {
 protected:
  void SetUp() override {
    EstimatorsTest::SetUp();
    wk::GeneratorOptions gen;
    gen.seed = 16;
    gen.require_nonempty = true;
    wide_ = wk::QueryGenerator(database_.get(), gen).GenerateLabeled(5, 3, 7);
    // Generated 1-8-join queries, every other one with 1-3 extra edges
    // between random table pairs (parallel edges and cycles), where one join
    // edge drives chain steps in several levels of the subset pass.
    gen.seed = 18;
    wk::QueryGenerator shaped_generator(database_.get(), gen);
    Rng rng(19);
    for (int joins = 1; joins <= 8; ++joins) {
      for (int i = 0; i < 2; ++i) {
        wk::LabeledQuery labeled;
        labeled.query = shaped_generator.Generate(joins);
        qry::Query& query = labeled.query;
        if (i == 1) {
          const int extra = 1 + static_cast<int>(rng.Next() % 3);
          for (int e = 0; e < extra; ++e) {
            const int a = static_cast<int>(rng.Next() % query.num_tables());
            const int b = static_cast<int>(rng.Next() % query.num_tables());
            if (a == b) continue;
            query.joins.push_back({{query.tables[a], 0}, {query.tables[b], 0}});
          }
        }
        shaped_.push_back(std::move(labeled));
      }
    }
    two_ = std::make_unique<LpceR>(encoder_.get(), config_, RefinerMode::kTwo);
    LpceRTrainOptions options;
    options.pretrain.epochs = 1;
    options.refine_epochs = 1;
    options.prefixes_per_query = 1;
    TrainLpceR(two_.get(), *database_, train_, options);
  }

  std::vector<const LpceR*> Models() const {
    return {lpce_r_.get(), two_.get()};
  }

  /// Feeds `observations` to both estimators, checking every estimable
  /// subset after each one (interleaved observe/estimate rounds).
  void ObserveAndCheck(const wk::LabeledQuery& labeled,
                       const std::vector<qry::RelSet>& observations,
                       LpceREstimator* pass, LpceREstimator* chain,
                       std::set<qry::RelSet>* roots,
                       const std::string& context) {
    for (qry::RelSet rels : observations) {
      // Labels cover the canonical plan; other sets get a stand-in count.
      const auto it = labeled.true_cards.find(rels);
      const double actual = it != labeled.true_cards.end()
                                ? static_cast<double>(it->second)
                                : 100.0 + rels;
      pass->ObserveActual(labeled.query, rels, actual);
      chain->ObserveActual(labeled.query, rels, actual);
      TrackObservation(rels, roots);
      ExpectRoundPassMatchesChain(pass, chain, labeled.query, *roots,
                                  context + " after " + std::to_string(rels));
    }
  }

  std::vector<wk::LabeledQuery> wide_;
  std::vector<wk::LabeledQuery> shaped_;
  std::unique_ptr<LpceR> two_;
};

TEST_F(RoundPassTest, EveryEstimateMatchesChainBitForBit) {
  Rng rng(2024);
  for (const LpceR* model : Models()) {
    for (size_t qi = 0; qi < wide_.size(); ++qi) {
      const wk::LabeledQuery& labeled = wide_[qi];
      ASSERT_GE(labeled.query.num_tables(), 4);
      ASSERT_LE(labeled.query.num_tables(), 8);
      LpceREstimator pass(model, database_.get());
      LpceREstimator chain(model, database_.get());
      std::set<qry::RelSet> roots;
      const std::string context = "mode " +
                                  std::to_string(static_cast<int>(model->mode())) +
                                  " query " + std::to_string(qi);
      ExpectRoundPassMatchesChain(&pass, &chain, labeled.query, roots,
                                  context + " cold");
      ObserveAndCheck(labeled,
                      RandomPlanObservations(labeled.query, &rng, 1 << 30),
                      &pass, &chain, &roots, context);
    }
  }
}

TEST_F(RoundPassTest, RestartSequenceMatchesChainBitForBit) {
  Rng rng(77);
  std::vector<wk::LabeledQuery> queries = wide_;
  queries.insert(queries.end(), shaped_.begin(), shaped_.end());
  for (const LpceR* model : Models()) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const wk::LabeledQuery& labeled = queries[qi];
      LpceREstimator pass(model, database_.get());
      LpceREstimator chain(model, database_.get());
      std::set<qry::RelSet> roots;
      const std::string context = "mode " +
                                  std::to_string(static_cast<int>(model->mode())) +
                                  " query " + std::to_string(qi);
      const int tables = labeled.query.num_tables();
      // A partial plan, then a fresh plan that re-executes its tables.
      ObserveAndCheck(labeled,
                      RandomPlanObservations(labeled.query, &rng, tables),
                      &pass, &chain, &roots, context + " first plan");
      ObserveAndCheck(labeled,
                      RandomPlanObservations(labeled.query, &rng, 2 * tables - 2),
                      &pass, &chain, &roots, context + " restart");
    }
  }
}

TEST_F(EstimatorsTest, RestartEvictsTheRootsItReexecutes) {
  // A restart re-executes the canonical plan further than the first round
  // did. Before the newest observation evicted intersecting roots, the
  // re-observed leaves stayed next to the old root they belong to, and the
  // old root's own re-observation was dropped as a duplicate: estimates then
  // injected the same tables twice.
  const qry::Query& query = labeled_.query;
  auto logical = qry::BuildCanonicalTree(query, query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  ASSERT_GE(nodes.size(), 6u);
  auto observe = [&](LpceREstimator* estimator, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      estimator->ObserveActual(
          query, nodes[i]->rels,
          static_cast<double>(labeled_.true_cards.at(nodes[i]->rels)));
    }
  };
  LpceREstimator restarted(lpce_r_.get(), database_.get());
  observe(&restarted, 3);  // first round: leaf, leaf, join
  observe(&restarted, 5);  // restart: the same join, then one more table
  LpceREstimator fresh(lpce_r_.get(), database_.get());
  observe(&fresh, 5);
  const qry::RelSet executed = nodes[4]->rels;
  for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
    if (!query.IsConnected(rels) || rels == executed) continue;
    EXPECT_EQ(restarted.EstimateSubset(query, rels),
              fresh.EstimateSubset(query, rels))
        << "rels=" << rels;
    EXPECT_EQ(restarted.EstimateSubsetChain(query, rels),
              fresh.EstimateSubsetChain(query, rels))
        << "rels=" << rels;
  }
}

TEST_F(EstimatorsTest, OneRoundPassServesTheWholeRound) {
  common::Counter* passes =
      common::MetricsRegistry::Global().counter("lpce.refiner.round_passes_total");
  const qry::Query& query = labeled_.query;
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  estimator.PrepareQuery(query);
  auto estimate_all = [&] {
    for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
      if (query.IsConnected(rels)) estimator.EstimateSubset(query, rels);
    }
  };
  const uint64_t before = passes->value();
  estimate_all();  // a continue search...
  estimate_all();  // ...and a restart search in the same round
  EXPECT_EQ(passes->value(), before + 1);
  estimator.ObserveActual(query, 1, static_cast<double>(labeled_.true_cards.at(1)));
  estimate_all();
  EXPECT_EQ(passes->value(), before + 2);
  estimator.ResetObservations();
  estimate_all();
  EXPECT_EQ(passes->value(), before + 3);
}

}  // namespace
}  // namespace lpce::model
