// Vectorized (batch-at-a-time) operator kernels on row-id intermediates —
// the executor's one production path.
//
// Each kernel streams its input in fixed-size batches of kDefaultBatchSize
// candidates: scans drive every filter predicate through a branch-free
// selection vector (common/selvec.h), and the hash join builds a flattened
// bucket-segment table probed batch-at-a-time. Intermediates carry one
// row-id column per still-referenced base table instead of payload columns
// (late materialization, see exec/rowset.h); payload values — join keys,
// residual keys — are read through the row ids at the operator that needs
// them. Every kernel runs sequentially on the calling thread, and row order is
// bit-identical to the row-at-a-time oracle kept with the tests
// (tests/testing/row_executor.h); see DESIGN.md "Vectorized execution on
// row-id intermediates" for the argument.
#ifndef LPCE_SRC_EXEC_VECTORIZED_H_
#define LPCE_SRC_EXEC_VECTORIZED_H_

#include <utility>
#include <vector>

#include "exec/rowset.h"
#include "query/query.h"
#include "storage/database.h"
#include "storage/table.h"

namespace lpce::exec {

/// Candidates per batch: large enough to amortize per-batch dispatch, small
/// enough that one batch's selection vector and gathered keys stay
/// cache-resident.
inline constexpr int kDefaultBatchSize = 1024;

/// splitmix64 finalizer — spreads join keys across hash buckets even when
/// they are small consecutive integers.
inline uint64_t MixJoinKey(int64_t key) {
  uint64_t x = static_cast<uint64_t>(key);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Batch scan: drives the table (or, for index scans, the row list the
/// driving index produced) through `residual` predicates batch-at-a-time
/// with selection vectors. The surviving selection vector becomes the
/// output's single row-id column; `required` is recorded in the schema
/// unmaterialized. `index_rows == nullptr` scans the whole table in storage
/// order.
RowSetPtr BatchScan(const db::Table& table, int32_t table_id,
                    const std::vector<uint32_t>* index_rows,
                    const std::vector<qry::Predicate>& residual,
                    const std::vector<db::ColRef>& required);

/// Hash join on row-id intermediates: the build gathers inner keys through
/// the inner side's row ids into a flattened bucket-segment table (per-key
/// matches enumerate in ascending inner-row order), the probe gathers outer
/// keys batch-at-a-time and refines candidates branch-free against
/// `residual_keys` (both sides read through their row ids). The output
/// carries one row-id column per table in `out_rid_tables`; `required` is
/// recorded in its schema unmaterialized. Sets *overflow when more than
/// `max_rows` rows would be emitted (0 = unlimited) — checked before any
/// buffer grows past one bucket segment or any row past the budget is
/// emitted, so an exploding join never materializes its explosion.
RowSetPtr LateHashJoin(const db::Database& db, const RowSet& outer,
                       const RowSet& inner, db::ColRef outer_key,
                       db::ColRef inner_key,
                       const std::vector<std::pair<db::ColRef, db::ColRef>>&
                           residual_keys,
                       const std::vector<db::ColRef>& required,
                       const std::vector<int32_t>& out_rid_tables,
                       size_t max_rows, bool* overflow);

/// Fused scan-filter → probe: streams `outer_table` (or the driving index's
/// row list) through the scan's residual predicates and feeds each batch's
/// surviving selection vector straight into the hash-join probe — no
/// intermediate rowset between the scan and the first join. The scan's
/// row-id output is still accumulated as a by-product into *scan_out (the
/// executor needs it for actual-cardinality bookkeeping, checkpoints, and
/// re-planning); on overflow *scan_out is left null.
RowSetPtr LateFusedScanJoin(
    const db::Database& db, const db::Table& outer_table,
    int32_t outer_table_id, const std::vector<uint32_t>* index_rows,
    const std::vector<qry::Predicate>& scan_filters,
    const std::vector<db::ColRef>& scan_required, RowSetPtr* scan_out,
    const RowSet& inner, db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow);

/// Sort-merge and nested-loop joins on row-id intermediates. Both gather
/// their key and residual-key columns through the row ids once, then run the
/// oracle's algorithm on those values — std::sort of the identity row
/// permutation by key and a group cross product for merge, a plain double
/// loop for nested loop — so the emitted (outer, inner) pair order is the
/// oracle's. Output, row budget, and overflow contract as LateHashJoin; the
/// budget is checked after every outer row. These are the deliberately
/// mispriced alternatives re-planning may pick, not hot paths.
RowSetPtr LateMergeJoin(const db::Database& db, const RowSet& outer,
                        const RowSet& inner, db::ColRef outer_key,
                        db::ColRef inner_key,
                        const std::vector<std::pair<db::ColRef, db::ColRef>>&
                            residual_keys,
                        const std::vector<db::ColRef>& required,
                        const std::vector<int32_t>& out_rid_tables,
                        size_t max_rows, bool* overflow);
RowSetPtr LateNestLoopJoin(
    const db::Database& db, const RowSet& outer, const RowSet& inner,
    db::ColRef outer_key, db::ColRef inner_key,
    const std::vector<std::pair<db::ColRef, db::ColRef>>& residual_keys,
    const std::vector<db::ColRef>& required,
    const std::vector<int32_t>& out_rid_tables, size_t max_rows,
    bool* overflow);

}  // namespace lpce::exec

#endif  // LPCE_SRC_EXEC_VECTORIZED_H_
