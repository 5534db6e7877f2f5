// Dynamic-programming plan enumeration (PostgreSQL-style, paper Sec. 6.1).
//
// The planner enumerates connected subsets of "plan units". For initial
// optimization every unit is a base table; during re-optimization some units
// are pseudo relations — materialized intermediates of the executed sub-plan
// with exactly known cardinalities (Sec. 6.2). For each subset it picks the
// cheapest combination of join order, join algorithm (hash/merge/nested
// loop), and scan method (sequential/index), using cardinalities from a
// pluggable estimator memoized in an estimation pool.
#ifndef LPCE_OPTIMIZER_PLANNER_H_
#define LPCE_OPTIMIZER_PLANNER_H_

#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "card/estimator.h"
#include "exec/plan.h"
#include "optimizer/cost_model.h"
#include "storage/database.h"

namespace lpce::opt {

/// One atom of plan enumeration: a base table or a materialized intermediate.
struct PlanUnit {
  qry::RelSet rels = 0;          // covered positions in Query::tables
  int table_pos = -1;            // >= 0 for base tables
  exec::RowSetPtr materialized;  // non-null for pseudo relations
  double known_card = -1.0;      // exact cardinality for pseudo relations
};

struct PlanResult {
  /// The cheapest plan; null when a cost bound was given and no plan costs
  /// less than it.
  std::unique_ptr<exec::PlanNode> plan;
  double search_seconds = 0.0;     // T_P: DP enumeration time
  double inference_seconds = 0.0;  // T_I: estimator time (unique subsets)
  size_t num_estimates = 0;        // unique cardinality estimations performed
  /// The estimation pool: every estimator answer of this search, keyed by
  /// table subset (card::OracleEstimator replays it without the model).
  std::unordered_map<qry::RelSet, double> pool;
};

class Planner {
 public:
  Planner(const db::Database* database, CostModel cost_model)
      : db_(database), cost_model_(cost_model) {}

  /// Plans the full query from base tables.
  ///
  /// `cost_bound` (re-optimization's restart search passes the continue
  /// plan's cost) prunes every split whose children already cost at least
  /// that much. The search stays exact: it returns the unbounded search's
  /// plan, bit for bit, when that plan costs less than the bound, and no
  /// plan otherwise. Every estimate is still fetched, so the estimator
  /// calls and the pool do not depend on the bound.
  PlanResult Plan(const qry::Query& query, card::CardinalityEstimator* estimator,
                  double cost_bound = std::numeric_limits<double>::infinity());

  /// Plans over arbitrary units (re-optimization entry point). Units must
  /// jointly cover all query tables exactly once. `cost_bound` as in Plan.
  PlanResult PlanUnits(
      const qry::Query& query, card::CardinalityEstimator* estimator,
      const std::vector<PlanUnit>& units,
      double cost_bound = std::numeric_limits<double>::infinity());

  const CostModel& cost_model() const { return cost_model_; }

 private:
  const db::Database* db_;
  CostModel cost_model_;
};

}  // namespace lpce::opt

#endif  // LPCE_OPTIMIZER_PLANNER_H_
