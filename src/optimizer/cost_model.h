// PostgreSQL-flavoured cost model for the physical operators in exec/plan.h.
//
// Costs are abstract work units proportional to the executor's actual work:
// hash join is linear in both inputs, merge join pays n·log n sorts, nested
// loop is quadratic (and therefore only wins for tiny outer inputs — the
// regime where a cardinality underestimate makes the optimizer pick it by
// mistake, paper Fig. 17).
#ifndef LPCE_OPTIMIZER_COST_MODEL_H_
#define LPCE_OPTIMIZER_COST_MODEL_H_

#include "exec/plan.h"

namespace lpce::opt {

struct CostParams {
  double seq_tuple = 1.0;       // per tuple scanned sequentially
  double pred = 0.3;            // per predicate evaluation
  double index_lookup = 60.0;   // per index range descent
  double index_tuple = 2.5;     // per tuple fetched through an index
  double hash_build = 2.0;      // per build-side tuple
  double hash_probe = 1.2;      // per probe-side tuple
  double sort = 0.25;           // per tuple * log2(tuples)
  double merge = 0.5;           // per tuple merged
  double nl_pair = 0.08;        // per (outer, inner) pair compared
  double out_tuple = 0.3;       // per output tuple materialized
  double pseudo_tuple = 0.2;    // per tuple re-read from a materialized result
};

/// The join operators in the order JoinCosts fills its costs (and the DP
/// breaks cost ties).
inline constexpr exec::PhysOp kJoinOps[3] = {exec::PhysOp::kHashJoin,
                                             exec::PhysOp::kMergeJoin,
                                             exec::PhysOp::kNestLoopJoin};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostParams params) : params_(params) {}

  const CostParams& params() const { return params_; }

  double SeqScanCost(double table_rows, int num_preds) const;
  double IndexScanCost(double matching_rows, int num_residual_preds) const;
  double PseudoScanCost(double rows) const;

  /// Join cost given the two input cardinalities and the output cardinality.
  /// `num_residual_preds` counts extra equi-join predicates (beyond the
  /// primary key pair) evaluated as residual filters on candidate matches.
  /// A wrapper over JoinInputOf and JoinCosts.
  ///
  /// All costs are sanitized: degenerate inputs (0 rows, NaN, infinity —
  /// e.g. a clamped estimate flowing into NL's outer*inner product) can
  /// never yield a NaN/-inf cost, so DP entry comparison stays a total
  /// order (a NaN cost makes `<` false both ways and the winning entry
  /// arbitrary).
  double JoinCost(exec::PhysOp op, double outer_rows, double inner_rows,
                  double output_rows, int num_residual_preds = 0) const;

  /// The join cost formula split into its per-relation terms, so a search
  /// that costs every split of a relation set derives each set's terms once
  /// (the DP planner) instead of once per split and operator.
  ///
  /// One join input: its sanitized rows and their sort factor
  /// log2(max(2, rows)).
  struct JoinInput {
    double rows = 0.0;
    double log2_rows = 1.0;
  };
  static JoinInput JoinInputOf(double rows);
  /// The cost of each join operator, indexed by kJoinOps' order (hash,
  /// merge, nested loop), for `outer` joined with `inner` into `output`
  /// (only its rows are read). Never inlined: callers add it to their
  /// children's costs as one opaque term, so -ffast-math cannot reassociate
  /// or contract the sum differently at each call site.
  void JoinCosts(const JoinInput& outer, const JoinInput& inner,
                 const JoinInput& output, int num_residual_preds,
                 double costs[3]) const;

 private:
  CostParams params_;
};

}  // namespace lpce::opt

#endif  // LPCE_OPTIMIZER_COST_MODEL_H_
