// Regression suite for the joins[0]-only bug: a join cut crossed by more
// than one query edge (a multigraph query — several equi-join predicates
// between the same table pair, or a cyclic join graph) used to silently
// drop every edge after the first, joining on one key and ignoring the
// rest. Now the first edge drives the join and the remainder ride along as
// residual filters (exec::PlanNode::residual_keys), validated, costed, and
// applied in every join path. Ground truth comes from the brute-force
// exact-cardinality oracle, which always honored every edge.
//
// Generated/parsed workloads are spanning trees (the parser enforces
// num_joins == num_tables - 1 and connectivity), where every cut crosses
// exactly one edge — so this suite builds its multigraph queries by hand.
#include <memory>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "testing/exact_card.h"

namespace lpce {
namespace {

class ResidualJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    mi_ = database_->catalog().FindTable("movie_info");
    midx_ = database_->catalog().FindTable("movie_info_idx");
    title_ = database_->catalog().FindTable("title");
    ASSERT_GE(mi_, 0);
    ASSERT_GE(midx_, 0);
    ASSERT_GE(title_, 0);
  }

  /// Two tables linked by TWO edges: movie_id = movie_id AND
  /// info_type_id = info_type_id. Every 2-way partition of this query cuts
  /// both edges at once.
  qry::Query MultigraphPair() const {
    qry::Query query;
    query.tables = {mi_, midx_};
    query.joins.push_back({{mi_, 1}, {midx_, 1}});  // movie_id
    query.joins.push_back({{mi_, 2}, {midx_, 2}});  // info_type_id
    return query;
  }

  /// Cyclic triangle: title joins both satellites on movie_id, and the
  /// satellites also join each other on info_type_id. The cut
  /// {title, movie_info} vs {movie_info_idx} crosses two edges.
  qry::Query CyclicTriangle() const {
    qry::Query query;
    query.tables = {title_, mi_, midx_};
    query.joins.push_back({{mi_, 1}, {title_, 0}});
    query.joins.push_back({{midx_, 1}, {title_, 0}});
    query.joins.push_back({{mi_, 2}, {midx_, 2}});
    return query;
  }

  uint64_t RunPlanned(const qry::Query& query) {
    card::HistogramEstimator estimator(&stats_);
    opt::Planner planner(database_.get(), opt::CostModel{});
    opt::PlanResult planned = planner.Plan(query, &estimator);
    EXPECT_TRUE(exec::ValidatePlan(*planned.plan, query).ok())
        << exec::ValidatePlan(*planned.plan, query).ToString();
    exec::Executor executor(database_.get(), &query);
    exec::RowSetPtr result = executor.Execute(planned.plan.get());
    EXPECT_NE(result, nullptr);
    return result->num_rows();
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  int32_t mi_ = -1;
  int32_t midx_ = -1;
  int32_t title_ = -1;
};

TEST_F(ResidualJoinTest, MultigraphPairMatchesExactOracle) {
  const qry::Query query = MultigraphPair();
  const uint64_t expected =
      testing::ExactCardinality(*database_, query, query.AllRels());
  EXPECT_EQ(RunPlanned(query), expected);
  // The single-edge version must differ from the two-edge one somewhere in
  // this data — otherwise the regression test would pass vacuously.
  qry::Query single = query;
  single.joins.pop_back();
  const uint64_t single_edge =
      testing::ExactCardinality(*database_, single, single.AllRels());
  ASSERT_GT(single_edge, expected)
      << "second edge must actually filter rows for this test to bite";
}

TEST_F(ResidualJoinTest, CyclicTriangleMatchesExactOracle) {
  const qry::Query query = CyclicTriangle();
  const uint64_t expected =
      testing::ExactCardinality(*database_, query, query.AllRels());
  EXPECT_EQ(RunPlanned(query), expected);
}

TEST_F(ResidualJoinTest, CanonicalHashPlanCarriesResidualEdges) {
  // The workload labeler's canonical plan must honor every edge too.
  const qry::Query query = CyclicTriangle();
  std::unique_ptr<exec::PlanNode> plan = exec::BuildCanonicalHashPlan(query);
  ASSERT_TRUE(exec::ValidatePlan(*plan, query).ok())
      << exec::ValidatePlan(*plan, query).ToString();
  exec::Executor executor(database_.get(), &query);
  exec::RowSetPtr result = executor.Execute(plan.get());
  EXPECT_EQ(result->num_rows(),
            testing::ExactCardinality(*database_, query, query.AllRels()));
}

TEST_F(ResidualJoinTest, ValidatorRejectsDroppedResidualEdges) {
  // A plan that joins a multi-edge cut on one key without carrying the
  // remaining edges as residuals is exactly the old bug — the validator
  // must reject it.
  const qry::Query query = MultigraphPair();
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanResult planned = planner.Plan(query, &estimator);
  ASSERT_EQ(planned.plan->residual_keys.size(), 1u);
  planned.plan->residual_keys.clear();
  EXPECT_FALSE(exec::ValidatePlan(*planned.plan, query).ok());
}

TEST_F(ResidualJoinTest, SpanningTreeQueriesHaveNoResiduals) {
  // For tree-shaped queries (everything the generator/parser produces) no
  // DP-feasible cut can cross two edges, so plans carry no residual keys.
  qry::Query query;
  query.tables = {title_, mi_};
  query.joins.push_back({{mi_, 1}, {title_, 0}});
  card::HistogramEstimator estimator(&stats_);
  opt::Planner planner(database_.get(), opt::CostModel{});
  opt::PlanResult planned = planner.Plan(query, &estimator);
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(planned.plan.get(), &nodes);
  for (const exec::PlanNode* node : nodes) {
    EXPECT_TRUE(node->residual_keys.empty());
  }
}

}  // namespace
}  // namespace lpce
