#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/fpclass.h"

namespace lpce::opt {

namespace {

double Log2Clamped(double x) { return std::log2(std::max(2.0, x)); }

/// Degenerate-cardinality guard. Estimators clamp to >= 0, but a 0-row input
/// multiplied by an infinite one (NL's outer*inner term) yields NaN, and NaN
/// poisons DP entry comparison: `cost < best.cost` is false both ways, so
/// whichever entry lands first wins arbitrarily. Sanitize rows before any
/// arithmetic: NaN/negative -> 0, +inf -> a huge finite row count. Bit-level
/// classification (common/fpclass.h): -ffast-math folds std::isnan/isinf.
double SanitizeRows(double rows) {
  if (common::IsNan(rows) || rows < 0.0) return 0.0;
  if (common::IsNanOrInf(rows)) return 1e30;
  return rows;
}

/// Costs must stay totally ordered under `<`. Any residual non-finite cost
/// becomes a huge finite sentinel so it loses to every real plan but still
/// compares deterministically against other degenerate entries.
double FiniteCost(double cost) {
  if (common::IsNanOrInf(cost) || cost < 0.0) return 1e300;
  return cost;
}

}  // namespace

double CostModel::SeqScanCost(double table_rows, int num_preds) const {
  return FiniteCost(SanitizeRows(table_rows) *
                    (params_.seq_tuple + params_.pred * num_preds));
}

double CostModel::IndexScanCost(double matching_rows,
                                int num_residual_preds) const {
  return FiniteCost(params_.index_lookup +
                    SanitizeRows(matching_rows) *
                        (params_.index_tuple + params_.pred * num_residual_preds));
}

double CostModel::PseudoScanCost(double rows) const {
  return FiniteCost(SanitizeRows(rows) * params_.pseudo_tuple);
}

CostModel::JoinInput CostModel::JoinInputOf(double rows) {
  const double sanitized = SanitizeRows(rows);
  return {sanitized, Log2Clamped(sanitized)};
}

// Out of line (and never inlined into JoinCost), so the DP and JoinCost run
// the same machine code. The body keeps the shape of the inline JoinCost it
// replaced, sanitizing included (a no-op on JoinInputOf rows); only the
// logarithms come precomputed. Under -ffast-math the compiler reassociates
// and contracts each sum by the shape of the code around it: a body that
// skipped the sanitizing rounded the hash cost differently in about a tenth
// of random inputs, while this one matched the old JoinCost bit for bit on
// 9 M random inputs under both CI flag sets.
__attribute__((noinline)) void CostModel::JoinCosts(
    const JoinInput& outer_in, const JoinInput& inner_in,
    const JoinInput& output, int num_residual_preds, double costs[3]) const {
  const double outer = SanitizeRows(outer_in.rows);
  const double inner = SanitizeRows(inner_in.rows);
  const double out = SanitizeRows(output.rows) * params_.out_tuple;
  // Residual equi-join predicates (beyond the primary key pair) are evaluated
  // on every candidate match the primary key surfaces; charge them against
  // the larger input as a proxy for the candidate stream.
  const double residual =
      params_.pred * num_residual_preds * std::max(outer, inner);
  costs[0] = FiniteCost(inner * params_.hash_build + outer * params_.hash_probe +
                        residual + out);
  costs[1] = FiniteCost(params_.sort * (outer * outer_in.log2_rows +
                                        inner * inner_in.log2_rows) +
                        params_.merge * (outer + inner) + residual + out);
  costs[2] = FiniteCost(params_.nl_pair * outer * inner + residual + out);
}

double CostModel::JoinCost(exec::PhysOp op, double outer_rows, double inner_rows,
                           double output_rows, int num_residual_preds) const {
  for (int k = 0; k < 3; ++k) {
    if (op != kJoinOps[k]) continue;
    double costs[3];
    // The output's sort factor is never read.
    JoinCosts(JoinInputOf(outer_rows), JoinInputOf(inner_rows),
              JoinInput{output_rows}, num_residual_preds, costs);
    return costs[k];
  }
  LPCE_CHECK_MSG(false, "not a join operator");
  return 0.0;
}

}  // namespace lpce::opt
