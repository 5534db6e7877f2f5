#include "testing/row_executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace lpce::testing {

using exec::PhysOp;
using exec::PlanNode;
using exec::RowSet;
using exec::RowSetPtr;

RowSetPtr RowExecutor::ExecuteScan(const PlanNode& node,
                                   const std::vector<db::ColRef>& required,
                                   int /*num_threads*/) {
  const int32_t table_id = query_->tables[node.table_pos];
  const db::Table& table = db_->table(table_id);
  std::vector<uint32_t> rows;
  std::vector<qry::Predicate> residual;
  if (ResolveScanInput(node, &rows, &residual)) {
    rows.resize(table.num_rows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> kept;
  for (const uint32_t row : rows) {
    bool pass = true;
    for (const auto& f : residual) {
      if (!qry::EvalCmp(table.at(row, f.col.column), f.op, f.value)) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(row);
  }

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->cols.resize(required.size());
  out->row_count = kept.size();
  for (size_t c = 0; c < required.size(); ++c) {
    LPCE_CHECK(required[c].table == table_id);
    const auto& src = table.column(required[c].column);
    for (const uint32_t row : kept) out->cols[c].push_back(src[row]);
  }
  return out;
}

RowSetPtr RowExecutor::ExecutePseudo(const PlanNode& node,
                                     const std::vector<db::ColRef>& required) {
  LPCE_CHECK(node.pseudo != nullptr);
  // A row-id result (from a production round) is gathered first, so the
  // oracle can also replay the production executor's intermediates.
  const RowSetPtr src = MaterializeRowSet(*db_, node.pseudo);
  auto out = std::make_shared<RowSet>();
  out->row_count = src->row_count;
  out->schema = required;
  out->cols.resize(required.size());
  for (size_t c = 0; c < required.size(); ++c) {
    const int idx = src->ColumnIndex(required[c]);
    if (idx >= 0) {
      out->cols[c] = src->cols[idx];
      continue;
    }
    // A row-id source can serve any column of its tables.
    const int rid = node.pseudo->RidIndex(required[c].table);
    LPCE_CHECK_MSG(rid >= 0, "pseudo relation missing a required column");
    const auto& col = db_->table(required[c].table).column(required[c].column);
    for (const uint32_t row : node.pseudo->rid_cols[rid]) {
      out->cols[c].push_back(col[row]);
    }
  }
  return out;
}

RowSetPtr RowExecutor::ExecuteJoin(const PlanNode& node, const RowSet& outer,
                                   const RowSet& inner,
                                   const std::vector<db::ColRef>& required,
                                   size_t max_rows, bool* overflow,
                                   int /*num_threads*/) {
  const int outer_key = outer.ColumnIndex(node.outer_key);
  const int inner_key = inner.ColumnIndex(node.inner_key);
  LPCE_CHECK(outer_key >= 0 && inner_key >= 0);
  const auto& okeys = outer.cols[outer_key];
  const auto& ikeys = inner.cols[inner_key];

  // Residual equi-join predicates (multigraph cuts): a candidate match
  // survives only when every pair agrees.
  std::vector<std::pair<int, int>> residual;
  for (const auto& [outer_col, inner_col] : node.residual_keys) {
    const int oc = outer.ColumnIndex(outer_col);
    const int ic = inner.ColumnIndex(inner_col);
    LPCE_CHECK_MSG(oc >= 0 && ic >= 0, "residual key column not materialized");
    residual.emplace_back(oc, ic);
  }

  // Source (side, column index) for every output column.
  struct Source {
    bool from_outer;
    int col;
  };
  std::vector<Source> sources;
  for (const auto& ref : required) {
    int idx = outer.ColumnIndex(ref);
    if (idx >= 0) {
      sources.push_back({true, idx});
    } else {
      idx = inner.ColumnIndex(ref);
      LPCE_CHECK_MSG(idx >= 0, "join output column not found in either side");
      sources.push_back({false, idx});
    }
  }

  auto out = std::make_shared<RowSet>();
  out->schema = required;
  out->cols.resize(required.size());
  auto emit = [&](size_t outer_row, size_t inner_row) {
    for (const auto& [oc, ic] : residual) {
      if (outer.cols[oc][outer_row] != inner.cols[ic][inner_row]) return;
    }
    for (size_t c = 0; c < sources.size(); ++c) {
      const Source& s = sources[c];
      out->cols[c].push_back(s.from_outer ? outer.cols[s.col][outer_row]
                                          : inner.cols[s.col][inner_row]);
    }
    ++out->row_count;
  };
  auto over_limit = [&]() {
    if (max_rows > 0 && out->row_count > max_rows) {
      *overflow = true;
      return true;
    }
    return false;
  };

  switch (node.op) {
    case PhysOp::kHashJoin: {
      std::unordered_map<int64_t, std::vector<uint32_t>> build;
      for (size_t r = 0; r < ikeys.size(); ++r) {
        build[ikeys[r]].push_back(static_cast<uint32_t>(r));
      }
      for (size_t r = 0; r < okeys.size(); ++r) {
        auto it = build.find(okeys[r]);
        if (it == build.end()) continue;
        for (uint32_t ir : it->second) emit(r, ir);
        if (over_limit()) return out;
      }
      break;
    }
    case PhysOp::kMergeJoin: {
      std::vector<uint32_t> operm(okeys.size()), iperm(ikeys.size());
      for (size_t i = 0; i < operm.size(); ++i) operm[i] = static_cast<uint32_t>(i);
      for (size_t i = 0; i < iperm.size(); ++i) iperm[i] = static_cast<uint32_t>(i);
      std::sort(operm.begin(), operm.end(),
                [&](uint32_t a, uint32_t b) { return okeys[a] < okeys[b]; });
      std::sort(iperm.begin(), iperm.end(),
                [&](uint32_t a, uint32_t b) { return ikeys[a] < ikeys[b]; });
      size_t oi = 0, ii = 0;
      while (oi < operm.size() && ii < iperm.size()) {
        const int64_t ov = okeys[operm[oi]];
        const int64_t iv = ikeys[iperm[ii]];
        if (ov < iv) {
          ++oi;
        } else if (ov > iv) {
          ++ii;
        } else {
          size_t oe = oi;
          while (oe < operm.size() && okeys[operm[oe]] == ov) ++oe;
          size_t ie = ii;
          while (ie < iperm.size() && ikeys[iperm[ie]] == iv) ++ie;
          for (size_t a = oi; a < oe; ++a) {
            for (size_t b = ii; b < ie; ++b) emit(operm[a], iperm[b]);
            if (over_limit()) return out;
          }
          oi = oe;
          ii = ie;
        }
      }
      break;
    }
    case PhysOp::kNestLoopJoin: {
      for (size_t r = 0; r < okeys.size(); ++r) {
        for (size_t ir = 0; ir < ikeys.size(); ++ir) {
          if (ikeys[ir] == okeys[r]) emit(r, ir);
        }
        if (over_limit()) return out;
      }
      break;
    }
    default:
      LPCE_CHECK_MSG(false, "not a join operator");
  }
  return out;
}

RowSetPtr MaterializeRowSet(const db::Database& db, RowSetPtr rs) {
  if (rs == nullptr || !rs->late()) return rs;
  auto out = std::make_shared<RowSet>();
  out->schema = rs->schema;
  out->row_count = rs->row_count;
  out->cols.resize(out->schema.size());
  for (size_t c = 0; c < out->schema.size(); ++c) {
    const db::ColRef ref = out->schema[c];
    const int idx = rs->RidIndex(ref.table);
    LPCE_CHECK_MSG(idx >= 0, "late rowset missing row ids for a schema column");
    const auto& src = db.table(ref.table).column(ref.column);
    for (const uint32_t row : rs->rid_cols[idx]) out->cols[c].push_back(src[row]);
  }
  return out;
}

}  // namespace lpce::testing
