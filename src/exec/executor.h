// Operator-at-a-time executor with checkpoint support.
//
// Nodes are executed in post-order; every operator finishes its whole result
// before its parent runs (column-at-a-time, MonetDB style — see DESIGN.md
// substitution 2). A checkpoint fires when a finished node's actual
// cardinality deviates from its estimate by more than a q-error threshold
// (paper Sec. 6.2); execution stops with all finished intermediates retained
// so the re-optimization controller can re-plan the remainder.
//
// The operators are the vectorized kernels of exec/vectorized.h: batch scans
// with branch-free selection vectors, hash joins fused with a leaf outer
// scan, and merge/nested-loop joins, all exchanging row-id intermediates
// (late materialization, exec/rowset.h). The row-at-a-time oracle the
// differential suites compare against (tests/testing/row_executor.h)
// overrides the operator kernels and reuses this control loop; both produce
// the same rows in the same order and byte-identical deterministic traces at
// every pool size.
#ifndef LPCE_SRC_EXEC_EXECUTOR_H_
#define LPCE_SRC_EXEC_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "engine/trace.h"
#include "exec/plan.h"
#include "exec/rowset.h"
#include "storage/database.h"

namespace lpce::exec {

/// q-error between an estimate and an actual cardinality; both sides are
/// clamped to >= 1 tuple (a zero-cardinality result matches any estimate
/// below one tuple).
double QError(double estimated, double actual);

class Executor {
 public:
  struct Options {
    bool enable_checkpoints = false;
    double qerror_threshold = 50.0;
    /// Trigger-policy refinements (the paper's Sec. 6.2 closes by calling
    /// smarter triggers future work; these knobs implement two natural ones):
    /// only consider re-optimizing when the finished operator produced at
    /// least this many rows (tiny intermediates cannot hurt the remainder)...
    size_t min_trip_rows = 0;
    /// ...and/or only on underestimates (actual > estimate) — the direction
    /// that lures the optimizer into nested-loop mistakes.
    bool underestimates_only = false;
    /// Abort the run if any single operator materializes more rows than
    /// this (0 = unlimited). Used by the workload generator to reject
    /// pathologically exploding queries.
    size_t max_node_rows = 0;
    /// Caps the worker threads used for hash-join build/probe and residual
    /// scan filtering (0 = the global pool's full size, 1 = sequential).
    /// Output row order is deterministic — identical at every setting.
    int num_threads = 0;
    /// When set, every finished operator appends a span and every checkpoint
    /// evaluation appends an event (see engine/trace.h). Not owned.
    eng::QueryTrace* trace = nullptr;
  };

  struct RunResult {
    /// Root result when the plan ran to completion, nullptr otherwise.
    RowSetPtr result;
    /// Node whose checkpoint tripped (nullptr when completed).
    PlanNode* tripped = nullptr;
    /// Set when max_node_rows was exceeded (the run is abandoned).
    bool aborted = false;
    /// Materialized results of every finished node.
    std::unordered_map<const PlanNode*, RowSetPtr> finished;
  };

  Executor(const db::Database* database, const qry::Query* query)
      : db_(database), query_(query) {}
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the plan to completion (no checkpoints), annotating actual_card on
  /// every node. Returns the root result.
  RowSetPtr Execute(PlanNode* root);

  /// Runs with the given options; may stop early at a tripped checkpoint.
  RunResult Run(PlanNode* root, const Options& options);

  /// Peak total resident bytes across all retained intermediates in the last
  /// run — the "peak memory" proxy for the Sec. 6.2 overhead experiment.
  /// Every finished node's result is retained (checkpoints may need it for
  /// re-planning), so this is the sum of live rowsets at its maximum, not
  /// just the largest single one.
  size_t peak_intermediate_bytes() const { return peak_bytes_; }

 protected:
  // Operator kernels. The production versions consume and produce row-id
  // intermediates; the test oracle overrides all three with row-at-a-time
  // kernels over materialized payload columns.
  virtual RowSetPtr ExecuteScan(const PlanNode& node,
                                const std::vector<db::ColRef>& required,
                                int num_threads);
  virtual RowSetPtr ExecutePseudo(const PlanNode& node,
                                  const std::vector<db::ColRef>& required);
  /// Sets *overflow (and may return a partial result) when more than
  /// `max_rows` rows would be emitted (0 = unlimited).
  virtual RowSetPtr ExecuteJoin(const PlanNode& node, const RowSet& outer,
                                const RowSet& inner,
                                const std::vector<db::ColRef>& required,
                                size_t max_rows, bool* overflow,
                                int num_threads);
  /// Whether a hash join over a leaf outer scan runs as one fused
  /// scan→probe pipeline (ExecuteFusedScanJoin) instead of scan, then join.
  virtual bool FusesScanIntoProbe() const { return true; }

  /// Resolves a scan node's driving input: fills `rows` with the index range
  /// result (index scans) and `residual` with the predicates left to filter;
  /// returns true for a dense scan of the whole table in storage order.
  bool ResolveScanInput(const PlanNode& node, std::vector<uint32_t>* rows,
                        std::vector<qry::Predicate>* residual) const;

  const db::Database* db_;
  const qry::Query* query_;

 private:
  RowSetPtr ExecuteNode(PlanNode* node, const std::vector<db::ColRef>& required,
                        const Options& options, RunResult* result);

  /// Post-execution bookkeeping shared by the operator-at-a-time loop and the
  /// fused scan→probe path: annotates the node, retains the result, updates
  /// metrics/trace, and evaluates the node's checkpoint. Returns true when
  /// the checkpoint tripped (result->tripped is set).
  bool FinishNode(PlanNode* node, const RowSetPtr& out,
                  const std::vector<db::ColRef>& required,
                  const Options& options, RunResult* result,
                  double exec_seconds, int outer_span, int inner_span,
                  uint64_t outer_rows, uint64_t inner_rows);

  /// Fused scan-filter → first-probe execution of a hash join whose outer
  /// child is a leaf scan: each scanned batch's selection vector feeds the
  /// probe directly, with per-node bookkeeping emitted afterwards in oracle
  /// order (outer, inner, join).
  RowSetPtr ExecuteFusedScanJoin(PlanNode* node,
                                 const std::vector<db::ColRef>& required,
                                 const Options& options, RunResult* result);

  /// Row-id columns a late intermediate covering `rels` must carry: the
  /// tables still referenced downstream — incident to a join edge crossing
  /// out of `rels`, or owning a parent-required column — in ascending query
  /// position order. Tables no longer referenced are dropped, shrinking the
  /// intermediate as the join chain consumes relations.
  std::vector<int32_t> LateRidTables(
      qry::RelSet rels, const std::vector<db::ColRef>& required) const;

  /// Splits parent-required columns into those provided by `rels`.
  std::vector<db::ColRef> SideRequired(const std::vector<db::ColRef>& required,
                                       qry::RelSet rels) const;

  size_t peak_bytes_ = 0;
  size_t live_bytes_ = 0;
};

/// Builds an all-hash-join plan following the canonical left-deep tree for
/// the full query — used by workload labeling, where only true cardinalities
/// matter, not operator choice.
std::unique_ptr<PlanNode> BuildCanonicalHashPlan(const qry::Query& query);

}  // namespace lpce::exec

#endif  // LPCE_SRC_EXEC_EXECUTOR_H_
