#include "exec/executor.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/timer.h"
#include "exec/vectorized.h"

namespace lpce::exec {

double QError(double estimated, double actual) {
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return est > act ? est / act : act / est;
}

namespace {

void AppendUnique(std::vector<db::ColRef>* cols, db::ColRef ref) {
  for (const auto& c : *cols) {
    if (c == ref) return;
  }
  cols->push_back(ref);
}

}  // namespace

std::vector<db::ColRef> Executor::SideRequired(
    const std::vector<db::ColRef>& required, qry::RelSet rels) const {
  std::vector<db::ColRef> out;
  for (const auto& c : required) {
    const int pos = query_->PositionOf(c.table);
    if (pos >= 0 && qry::Contains(rels, pos)) out.push_back(c);
  }
  return out;
}

std::vector<int32_t> Executor::LateRidTables(
    qry::RelSet rels, const std::vector<db::ColRef>& required) const {
  std::vector<int32_t> tables;
  for (size_t pos = 0; pos < query_->tables.size(); ++pos) {
    if (!qry::Contains(rels, static_cast<int>(pos))) continue;
    const int32_t table_id = query_->tables[pos];
    bool needed = false;
    for (const auto& ref : required) needed |= ref.table == table_id;
    for (const auto& join : query_->joins) {
      if (needed) break;
      const bool left_in =
          qry::Contains(rels, query_->PositionOf(join.left.table));
      const bool right_in =
          qry::Contains(rels, query_->PositionOf(join.right.table));
      if (left_in == right_in) continue;  // not a crossing edge
      needed = (left_in ? join.left.table : join.right.table) == table_id;
    }
    if (needed) tables.push_back(table_id);
  }
  return tables;
}

RowSetPtr Executor::Execute(PlanNode* root) {
  Options options;
  options.enable_checkpoints = false;
  RunResult result = Run(root, options);
  return result.result;
}

Executor::RunResult Executor::Run(PlanNode* root, const Options& options) {
  peak_bytes_ = 0;
  live_bytes_ = 0;
  RunResult result;
  RowSetPtr out = ExecuteNode(root, {}, options, &result);
  if (result.tripped == nullptr) result.result = out;
  static common::Gauge* peak_bytes =
      common::MetricsRegistry::Global().gauge(
          "executor.peak_intermediate_bytes");
  peak_bytes->Set(static_cast<double>(peak_bytes_));
  return result;
}

RowSetPtr Executor::ExecuteNode(PlanNode* node,
                                const std::vector<db::ColRef>& required,
                                const Options& options, RunResult* result) {
  // A hash join over a leaf scan runs as one scan→probe pipeline. Fusion
  // stops at join children: their checkpoints must be evaluated before the
  // parent may run, which is exactly a pipeline breaker.
  if (FusesScanIntoProbe() && node->op == PhysOp::kHashJoin &&
      (node->outer->op == PhysOp::kSeqScan ||
       node->outer->op == PhysOp::kIndexScan) &&
      !node->inner->is_join()) {
    return ExecuteFusedScanJoin(node, required, options, result);
  }
  WallTimer node_timer;
  double children_seconds = 0.0;
  RowSetPtr out;
  int outer_span = -1, inner_span = -1;
  uint64_t outer_rows = 0, inner_rows = 0;
  if (node->is_join()) {
    std::vector<db::ColRef> outer_req = SideRequired(required, node->outer->rels);
    std::vector<db::ColRef> inner_req = SideRequired(required, node->inner->rels);
    AppendUnique(&outer_req, node->outer_key);
    AppendUnique(&inner_req, node->inner_key);
    for (const auto& [outer_col, inner_col] : node->residual_keys) {
      AppendUnique(&outer_req, outer_col);
      AppendUnique(&inner_req, inner_col);
    }
    WallTimer children_timer;
    RowSetPtr outer = ExecuteNode(node->outer.get(), outer_req, options, result);
    if (result->tripped != nullptr || result->aborted) return nullptr;
    if (options.trace != nullptr) outer_span = options.trace->last_span_id();
    RowSetPtr inner = ExecuteNode(node->inner.get(), inner_req, options, result);
    if (result->tripped != nullptr || result->aborted) return nullptr;
    if (options.trace != nullptr) inner_span = options.trace->last_span_id();
    children_seconds = children_timer.ElapsedSeconds();
    outer_rows = outer->num_rows();
    inner_rows = inner->num_rows();
    bool overflow = false;
    out = ExecuteJoin(*node, *outer, *inner, required, options.max_node_rows,
                      &overflow, options.num_threads);
    if (overflow) {
      result->aborted = true;
      return nullptr;
    }
  } else if (node->op == PhysOp::kPseudoScan) {
    out = ExecutePseudo(*node, required);
  } else {
    out = ExecuteScan(*node, required, options.num_threads);
  }
  const double exec_seconds = node_timer.ElapsedSeconds() - children_seconds;
  if (FinishNode(node, out, required, options, result, exec_seconds,
                 outer_span, inner_span, outer_rows, inner_rows)) {
    return nullptr;
  }
  return out;
}

bool Executor::FinishNode(PlanNode* node, const RowSetPtr& out,
                          const std::vector<db::ColRef>& required,
                          const Options& options, RunResult* result,
                          double exec_seconds, int outer_span, int inner_span,
                          uint64_t outer_rows, uint64_t inner_rows) {
  node->actual_card = out->num_rows();
  node->executed = true;
  node->exec_seconds = exec_seconds;
  // Every finished result is retained in result->finished until the run ends
  // (checkpoints may re-plan around any of them), so live memory is the sum
  // of all finished intermediates, not the largest single one.
  live_bytes_ += out->ByteSize();
  peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  result->finished[node] = out;

  {
    static common::Counter* nodes_total =
        common::MetricsRegistry::Global().counter("executor.nodes_total");
    static common::Counter* rows_total =
        common::MetricsRegistry::Global().counter("executor.rows_out_total");
    static common::Histogram* node_seconds =
        common::MetricsRegistry::Global().histogram("executor.node_seconds");
    nodes_total->Increment();
    rows_total->Increment(node->actual_card);
    node_seconds->Observe(node->exec_seconds);
  }
  if (options.trace != nullptr) {
    eng::TraceSpan span;
    span.op = PhysOpName(node->op);
    span.rels = node->rels;
    span.est_card = node->est_card;
    span.actual_card = node->actual_card;
    span.qerror = QError(node->est_card, static_cast<double>(node->actual_card));
    span.outer_span = outer_span;
    span.inner_span = inner_span;
    span.outer_rows = outer_rows;
    span.inner_rows = inner_rows;
    span.wall_seconds = node->exec_seconds;
    options.trace->AddSpan(std::move(span));
  }

  // Checkpoint: a pseudo scan's cardinality is exact by construction, and a
  // tripped root has nothing left to re-plan.
  if (options.enable_checkpoints && node->op != PhysOp::kPseudoScan &&
      !required.empty()) {
    const double actual = static_cast<double>(node->actual_card);
    const bool is_underestimate = actual > std::max(node->est_card, 1.0);
    const bool policy_allows =
        node->actual_card >= options.min_trip_rows &&
        (!options.underestimates_only || is_underestimate);
    const bool tripped =
        policy_allows &&
        QError(node->est_card, actual) >= options.qerror_threshold;
    if (options.trace != nullptr) {
      eng::TraceEvent event;
      event.kind = eng::TraceEventKind::kCheckpoint;
      event.rels = node->rels;
      event.est_card = node->est_card;
      event.actual_card = actual;
      event.qerror = QError(node->est_card, actual);
      event.threshold = options.qerror_threshold;
      event.policy_allows = policy_allows;
      event.tripped = tripped;
      options.trace->AddEvent(std::move(event));
    }
    if (tripped) {
      static common::Counter* trips_total =
          common::MetricsRegistry::Global().counter(
              "executor.checkpoint_trips_total");
      trips_total->Increment();
      result->tripped = node;
      return true;
    }
  }
  return false;
}

RowSetPtr Executor::ExecuteFusedScanJoin(PlanNode* node,
                                         const std::vector<db::ColRef>& required,
                                         const Options& options,
                                         RunResult* result) {
  LPCE_PROFILE_SCOPE("exec.fused_scan_join");
  PlanNode* outer_node = node->outer.get();
  PlanNode* inner_node = node->inner.get();
  std::vector<db::ColRef> outer_req = SideRequired(required, outer_node->rels);
  std::vector<db::ColRef> inner_req = SideRequired(required, inner_node->rels);
  AppendUnique(&outer_req, node->outer_key);
  AppendUnique(&inner_req, node->inner_key);
  for (const auto& [outer_col, inner_col] : node->residual_keys) {
    AppendUnique(&outer_req, outer_col);
    AppendUnique(&inner_req, inner_col);
  }

  // The build side (a leaf) executes first wall-clock — the probe streams
  // against its table — but bookkeeping below is emitted in the oracle's
  // post-order (outer, inner, join) so traces and trip points stay
  // bit-identical to the unfused lanes.
  WallTimer inner_timer;
  RowSetPtr inner =
      inner_node->op == PhysOp::kPseudoScan
          ? ExecutePseudo(*inner_node, inner_req)
          : ExecuteScan(*inner_node, inner_req, options.num_threads);
  const double inner_seconds = inner_timer.ElapsedSeconds();

  const int32_t table_id = query_->tables[outer_node->table_pos];
  const db::Table& table = db_->table(table_id);
  std::vector<uint32_t> rows;
  std::vector<qry::Predicate> scan_residual;
  const bool dense = ResolveScanInput(*outer_node, &rows, &scan_residual);

  WallTimer fused_timer;
  bool overflow = false;
  RowSetPtr scan_out;
  RowSetPtr out = LateFusedScanJoin(
      *db_, table, table_id, dense ? nullptr : &rows, scan_residual, outer_req,
      &scan_out, *inner, node->outer_key, node->inner_key, node->residual_keys,
      required, LateRidTables(node->rels, required), options.max_node_rows,
      &overflow, options.num_threads);
  const double fused_seconds = fused_timer.ElapsedSeconds();
  if (overflow) {
    // The fused probe abandons its run mid-stream, so its scan by-product is
    // truncated; recompute the scan honestly — the outer node's bookkeeping
    // (actual cardinality, checkpoint) must match the unfused lanes even on
    // an aborted run.
    scan_out = BatchScan(table, table_id, dense ? nullptr : &rows,
                         scan_residual, outer_req, options.num_threads);
  }

  int outer_span = -1, inner_span = -1;
  if (FinishNode(outer_node, scan_out, outer_req, options, result,
                 /*exec_seconds=*/0.0, -1, -1, 0, 0)) {
    return nullptr;
  }
  if (options.trace != nullptr) outer_span = options.trace->last_span_id();
  if (FinishNode(inner_node, inner, inner_req, options, result, inner_seconds,
                 -1, -1, 0, 0)) {
    return nullptr;
  }
  if (options.trace != nullptr) inner_span = options.trace->last_span_id();
  if (overflow) {
    result->aborted = true;
    return nullptr;
  }
  if (FinishNode(node, out, required, options, result, fused_seconds,
                 outer_span, inner_span, scan_out->num_rows(),
                 inner->num_rows())) {
    return nullptr;
  }
  return out;
}

bool Executor::ResolveScanInput(const PlanNode& node,
                                std::vector<uint32_t>* rows,
                                std::vector<qry::Predicate>* residual) const {
  if (node.op == PhysOp::kIndexScan) {
    // Drive the scan from the sorted index on index_col; the remaining
    // predicates (if any) are applied as residual filters.
    const db::SortedIndex& index = db_->sorted_index(node.index_col);
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    // `x < INT64_MIN` / `x > INT64_MAX` cannot match anything, and naively
    // widening the literal by one would overflow (UB) — mark the range empty
    // instead.
    bool empty_range = false;
    bool driven = false;
    for (const auto& f : node.filters) {
      if (!(f.col == node.index_col) || driven || f.op == qry::CmpOp::kNe) {
        residual->push_back(f);
        continue;
      }
      driven = true;
      switch (f.op) {
        case qry::CmpOp::kLt:
          if (f.value == std::numeric_limits<int64_t>::min()) {
            empty_range = true;
          } else {
            hi = f.value - 1;
          }
          break;
        case qry::CmpOp::kLe:
          hi = f.value;
          break;
        case qry::CmpOp::kEq:
          lo = hi = f.value;
          break;
        case qry::CmpOp::kGe:
          lo = f.value;
          break;
        case qry::CmpOp::kGt:
          if (f.value == std::numeric_limits<int64_t>::max()) {
            empty_range = true;
          } else {
            lo = f.value + 1;
          }
          break;
        case qry::CmpOp::kNe:
          break;
      }
    }
    if (!empty_range) *rows = index.RangeLookup(lo, hi);
    return false;
  }
  *residual = node.filters;
  return true;
}

RowSetPtr Executor::ExecuteScan(const PlanNode& node,
                                const std::vector<db::ColRef>& required,
                                int num_threads) {
  LPCE_PROFILE_SCOPE(node.op == PhysOp::kIndexScan ? "exec.index_scan"
                                                   : "exec.seq_scan");
  const int32_t table_id = query_->tables[node.table_pos];
  std::vector<uint32_t> rows;
  std::vector<qry::Predicate> residual;
  const bool dense = ResolveScanInput(node, &rows, &residual);
  return BatchScan(db_->table(table_id), table_id, dense ? nullptr : &rows,
                   residual, required, num_threads);
}

RowSetPtr Executor::ExecutePseudo(const PlanNode& node,
                                  const std::vector<db::ColRef>& required) {
  LPCE_PROFILE_SCOPE("exec.pseudo_scan");
  LPCE_CHECK(node.pseudo != nullptr);
  const RowSet& src = *node.pseudo;
  // Every round runs on row-id intermediates, so a pseudo relation is an
  // earlier round's row-id result: pass its columns through, pruned to the
  // tables the remainder of the plan still references. A pseudo relation can
  // serve any column of its tables — availability is per table, not per
  // recorded schema entry.
  LPCE_CHECK_MSG(src.late(), "pseudo relation without row-id columns");
  auto out = std::make_shared<RowSet>();
  out->row_count = src.row_count;
  out->schema = required;
  for (int32_t table_id : LateRidTables(node.rels, required)) {
    const int idx = src.RidIndex(table_id);
    LPCE_CHECK_MSG(idx >= 0, "pseudo relation missing a row-id column");
    out->rid_tables.push_back(table_id);
    out->rid_cols.push_back(src.rid_cols[idx]);
  }
  return out;
}

RowSetPtr Executor::ExecuteJoin(const PlanNode& node, const RowSet& outer,
                                const RowSet& inner,
                                const std::vector<db::ColRef>& required,
                                size_t max_rows, bool* overflow,
                                int num_threads) {
  const std::vector<int32_t> rid_tables = LateRidTables(node.rels, required);
  switch (node.op) {
    case PhysOp::kHashJoin:
      return LateHashJoin(*db_, outer, inner, node.outer_key, node.inner_key,
                          node.residual_keys, required, rid_tables, max_rows,
                          overflow, num_threads);
    case PhysOp::kMergeJoin:
      return LateMergeJoin(*db_, outer, inner, node.outer_key, node.inner_key,
                           node.residual_keys, required, rid_tables, max_rows,
                           overflow);
    case PhysOp::kNestLoopJoin:
      return LateNestLoopJoin(*db_, outer, inner, node.outer_key,
                              node.inner_key, node.residual_keys, required,
                              rid_tables, max_rows, overflow);
    default:
      LPCE_CHECK_MSG(false, "not a join operator");
      return nullptr;
  }
}

std::unique_ptr<PlanNode> BuildCanonicalHashPlan(const qry::Query& query) {
  std::unique_ptr<qry::LogicalNode> logical =
      qry::BuildCanonicalTree(query, query.AllRels());
  // Convert the logical tree into a physical plan with hash joins and
  // sequential scans.
  std::function<std::unique_ptr<PlanNode>(const qry::LogicalNode*)> convert =
      [&](const qry::LogicalNode* node) -> std::unique_ptr<PlanNode> {
    auto plan = std::make_unique<PlanNode>();
    plan->rels = node->rels;
    if (node->is_leaf()) {
      plan->op = PhysOp::kSeqScan;
      plan->table_pos = node->table_pos;
      plan->filters = query.PredicatesOf(node->table_pos);
      return plan;
    }
    plan->op = PhysOp::kHashJoin;
    plan->outer = convert(node->left.get());
    plan->inner = convert(node->right.get());
    const qry::Join& join = query.joins[node->join_idx];
    const int left_pos = query.PositionOf(join.left.table);
    if (qry::Contains(plan->outer->rels, left_pos)) {
      plan->outer_key = join.left;
      plan->inner_key = join.right;
    } else {
      plan->outer_key = join.right;
      plan->inner_key = join.left;
    }
    // Multigraph cuts: every additional edge crossing this partition rides
    // along as a residual filter, oriented (outer column, inner column).
    for (int join_idx :
         query.JoinsBetween(plan->outer->rels, plan->inner->rels)) {
      if (join_idx == node->join_idx) continue;
      const qry::Join& extra = query.joins[join_idx];
      const int extra_left = query.PositionOf(extra.left.table);
      if (qry::Contains(plan->outer->rels, extra_left)) {
        plan->residual_keys.emplace_back(extra.left, extra.right);
      } else {
        plan->residual_keys.emplace_back(extra.right, extra.left);
      }
    }
    return plan;
  };
  return convert(logical.get());
}

}  // namespace lpce::exec
