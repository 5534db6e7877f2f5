// Reference DP planner: the differential oracle of opt::Planner::PlanUnits.
//
// ReferencePlanUnits is the straightforward form of the same DPsize search:
// it walks every unit mask in ascending order, tests each mask's tables for
// connectivity and every submask pair for crossing edges by plain scans of
// Query::joins (sharing no code with qry::JoinGraph), and fetches each
// estimate lazily the first time a pair needs it. The
// production planner precomputes per-mask bit tables and fetches every
// estimate before the search; it must return the same plan with the same
// est_card/est_cost bits on every node, make the same estimator calls in the
// same order, and build the same estimation pool — planner_test's
// differential suite and bench_planner_dp check exactly that.
#ifndef LPCE_TESTS_TESTING_REFERENCE_PLANNER_H_
#define LPCE_TESTS_TESTING_REFERENCE_PLANNER_H_

#include <functional>
#include <string>
#include <vector>

#include "card/estimator.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "storage/database.h"

namespace lpce::testing {

/// Plans `query` over `units` like opt::Planner(database, cost_model)
/// .PlanUnits would. Records no planner metrics.
opt::PlanResult ReferencePlanUnits(const db::Database& database,
                                   const opt::CostModel& cost_model,
                                   const qry::Query& query,
                                   card::CardinalityEstimator* estimator,
                                   const std::vector<opt::PlanUnit>& units);

/// ReferencePlanUnits over one base-table unit per query table (Planner::Plan).
opt::PlanResult ReferencePlan(const db::Database& database,
                              const opt::CostModel& cost_model,
                              const qry::Query& query,
                              card::CardinalityEstimator* estimator);

/// Every planner decision in `plan`, one line per node in pre-order:
/// operator, relation set, scan table/filters/index column, pseudo rowset
/// address, join keys and residual keys, and the raw bits of est_card and
/// est_cost. Equal strings mean bit-identical plans.
std::string DescribePlanBits(const exec::PlanNode& plan);

/// The pool as "rels:bits" entries sorted by rels.
std::string DescribePoolBits(const opt::PlanResult& result);

/// Answers with `estimate(rels)` and records every requested subset in call
/// order.
class RecordingEstimator : public card::CardinalityEstimator {
 public:
  explicit RecordingEstimator(std::function<double(qry::RelSet)> estimate)
      : estimate_(std::move(estimate)) {}
  std::string name() const override { return "recording"; }
  double EstimateSubset(const qry::Query& /*query*/,
                        qry::RelSet rels) override {
    calls_.push_back(rels);
    return estimate_(rels);
  }
  const std::vector<qry::RelSet>& calls() const { return calls_; }
  void ClearCalls() { calls_.clear(); }

 private:
  std::function<double(qry::RelSet)> estimate_;
  std::vector<qry::RelSet> calls_;
};

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_REFERENCE_PLANNER_H_
