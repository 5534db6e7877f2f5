// Physical execution plans.
//
// A plan is a binary tree of scans and joins; PostgreSQL-style physical
// operators (paper Fig. 10): sequential scan, index scan, hash join, sort-
// merge join, nested-loop join. During re-optimization a leaf can also be a
// "pseudo scan" reading an already-materialized intermediate result.
#ifndef LPCE_SRC_EXEC_PLAN_H_
#define LPCE_SRC_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/rowset.h"
#include "query/query.h"

namespace lpce::exec {

enum class PhysOp {
  kSeqScan = 0,
  kIndexScan,
  kHashJoin,
  kMergeJoin,
  kNestLoopJoin,
  kPseudoScan,
};

const char* PhysOpName(PhysOp op);

struct PlanNode {
  PhysOp op = PhysOp::kSeqScan;
  qry::RelSet rels = 0;

  // Scans.
  int table_pos = -1;                       // position in Query::tables
  std::vector<qry::Predicate> filters;      // applied during the scan
  db::ColRef index_col;                     // kIndexScan: the driving column

  // Pseudo scans (re-optimization): a materialized intermediate.
  RowSetPtr pseudo;

  // Joins. `inner` is the build side for hash join and the inner relation
  // for nested loop; the optimizer puts the smaller (estimated) input there.
  std::unique_ptr<PlanNode> outer;
  std::unique_ptr<PlanNode> inner;
  db::ColRef outer_key;
  db::ColRef inner_key;
  /// Extra equi-join predicates crossing the same cut (a multigraph query can
  /// connect two subtrees with several edges). The first edge drives the join
  /// algorithm via outer_key/inner_key; these are evaluated as residual
  /// filters on every candidate match, oriented (outer column, inner column).
  std::vector<std::pair<db::ColRef, db::ColRef>> residual_keys;

  // Optimizer annotations.
  double est_card = 0.0;
  double est_cost = 0.0;

  // Executor annotations.
  uint64_t actual_card = 0;
  bool executed = false;
  /// Wall-clock seconds spent in this operator itself (children excluded).
  double exec_seconds = 0.0;

  bool is_join() const {
    return op == PhysOp::kHashJoin || op == PhysOp::kMergeJoin ||
           op == PhysOp::kNestLoopJoin;
  }

  /// Deep copy (without executor annotations on the copy).
  std::unique_ptr<PlanNode> Clone() const;

  /// Pretty-prints the plan tree with estimated/actual cardinalities —
  /// the format used by the paper's Fig. 17 case study.
  std::string ToString(const db::Catalog& catalog, const qry::Query& query,
                       int indent = 0) const;
};

/// Collects the nodes in post-order (children before parents) — the order in
/// which an operator-at-a-time executor finishes them.
void PostOrderPlan(PlanNode* root, std::vector<PlanNode*>* out);
void PostOrderPlan(const PlanNode* root, std::vector<const PlanNode*>* out);

/// Structural validation of a physical plan against its query: every join's
/// children partition its relation set and are linked by exactly one query
/// edge whose key columns sit on the correct sides; scans reference tables
/// in the query; pseudo scans carry a materialized result covering their
/// set. Returns a non-OK status describing the first violation. The engine
/// checks this (under LPCE_DCHECK builds) on every plan it executes.
Status ValidatePlan(const PlanNode& root, const qry::Query& query);

}  // namespace lpce::exec

#endif  // LPCE_SRC_EXEC_PLAN_H_
