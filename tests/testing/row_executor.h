// Row-at-a-time executor: the differential oracle of the production
// executor.
//
// RowExecutor reuses exec::Executor's control loop (post-order execution,
// checkpoints, traces, peak-bytes accounting) but overrides every operator
// kernel with the straightforward Volcano-style version over fully
// materialized payload columns: a sequential filter-then-gather scan, and
// std::unordered_map hash, sort-merge, and nested-loop joins emitting one row
// at a time. Scans never fuse into probes. The production kernels
// (exec/vectorized.h) must reproduce its rowsets (after MaterializeRowSet),
// actual cardinalities, overflow aborts, and deterministic trace bytes
// exactly, at every pool size — that is what the exec, fuzz, plan-cache and
// golden-trace suites and bench_exec_batch check.
#ifndef LPCE_TESTS_TESTING_ROW_EXECUTOR_H_
#define LPCE_TESTS_TESTING_ROW_EXECUTOR_H_

#include <memory>
#include <vector>

#include "exec/executor.h"

namespace lpce::testing {

class RowExecutor : public exec::Executor {
 public:
  using exec::Executor::Executor;

  /// Engine::ExecutorFactory that builds a RowExecutor.
  static std::unique_ptr<exec::Executor> Make(const db::Database* database,
                                              const qry::Query* query) {
    return std::make_unique<RowExecutor>(database, query);
  }

 protected:
  exec::RowSetPtr ExecuteScan(const exec::PlanNode& node,
                              const std::vector<db::ColRef>& required,
                              int num_threads) override;
  exec::RowSetPtr ExecutePseudo(
      const exec::PlanNode& node,
      const std::vector<db::ColRef>& required) override;
  exec::RowSetPtr ExecuteJoin(const exec::PlanNode& node,
                              const exec::RowSet& outer,
                              const exec::RowSet& inner,
                              const std::vector<db::ColRef>& required,
                              size_t max_rows, bool* overflow,
                              int num_threads) override;
  bool FusesScanIntoProbe() const override { return false; }
};

/// Gathers a row-id rowset's payload columns from the base tables (dst[r] =
/// table.column(schema[c])[rid[r]]), producing the materialized rowset the
/// oracle would have built — identical schema, row order, and values.
/// Returns `rs` unchanged when it is already materialized (or null).
exec::RowSetPtr MaterializeRowSet(const db::Database& db, exec::RowSetPtr rs);

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_ROW_EXECUTOR_H_
