// Materialized intermediate results exchanged between physical operators.
#ifndef LPCE_SRC_EXEC_ROWSET_H_
#define LPCE_SRC_EXEC_ROWSET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/schema.h"

namespace lpce::exec {

/// A columnar result: `schema[i]` names the logical column the rowset
/// provides to its consumer. `row_count` is tracked explicitly so zero-column
/// results (everything projected away under a COUNT(*)) still carry their
/// cardinality.
///
/// The executor's intermediates are late-materialized: instead of payload
/// columns they carry aligned row-id columns into the base tables —
/// `rid_cols[i][r]` is the storage row of table `rid_tables[i]` that
/// contributed to output row r — and the join kernels gather payload values
/// through the row ids where they need them. `cols` holds materialized
/// payloads (`cols[i]` for `schema[i]`); only the row-at-a-time test oracle
/// produces those. A late rowset and its materialized counterpart describe
/// the same rows in the same order.
struct RowSet {
  std::vector<db::ColRef> schema;
  std::vector<std::vector<int64_t>> cols;
  size_t row_count = 0;
  std::vector<int32_t> rid_tables;
  std::vector<std::vector<uint32_t>> rid_cols;

  size_t num_rows() const { return row_count; }
  size_t num_cols() const { return schema.size(); }

  /// True when this rowset carries row-id columns instead of payloads.
  bool late() const { return !rid_tables.empty(); }

  /// Index of `ref` in the schema, or -1.
  int ColumnIndex(db::ColRef ref) const {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == ref) return static_cast<int>(i);
    }
    return -1;
  }

  /// Index of `table_id` in rid_tables, or -1.
  int RidIndex(int32_t table_id) const {
    for (size_t i = 0; i < rid_tables.size(); ++i) {
      if (rid_tables[i] == table_id) return static_cast<int>(i);
    }
    return -1;
  }

  /// Estimated resident bytes (for the Sec. 6.2 overhead measurements).
  /// Row-id columns count at their narrower width — the memory saving of
  /// late materialization is visible in peak_intermediate_bytes.
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const auto& c : cols) bytes += c.size() * sizeof(int64_t);
    for (const auto& r : rid_cols) bytes += r.size() * sizeof(uint32_t);
    return bytes;
  }
};

using RowSetPtr = std::shared_ptr<const RowSet>;

}  // namespace lpce::exec

#endif  // LPCE_SRC_EXEC_ROWSET_H_
