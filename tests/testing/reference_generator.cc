#include "testing/reference_generator.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/executor.h"
#include "exec/vectorized.h"
#include "query/join_graph.h"

namespace lpce::testing {

bool CanonicalPlanLabel(const db::Database& database, wk::LabeledQuery* out,
                        size_t max_node_rows) {
  auto plan = exec::BuildCanonicalHashPlan(out->query);
  exec::Executor executor(&database, &out->query);
  exec::Executor::Options options;
  options.max_node_rows = max_node_rows;
  exec::Executor::RunResult run = executor.Run(plan.get(), options);
  if (run.aborted) return false;
  std::vector<const exec::PlanNode*> nodes;
  exec::PostOrderPlan(plan.get(), &nodes);
  for (const exec::PlanNode* node : nodes) {
    out->true_cards[node->rels] = node->actual_card;
  }
  return true;
}

namespace {

/// The depth-first pass of HashJoinCountConnectedSubsets. Every connected
/// subset of two or more tables has one parent: the subset minus its
/// highest-position table whose removal leaves it connected (a connected
/// graph always has a non-cut vertex). The pass walks that tree from the
/// single tables, so each subset is joined exactly once, from its parent's
/// rows.
class SubsetCounter {
 public:
  SubsetCounter(const db::Database& database, const qry::Query& query,
                size_t max_rows, bool require_nonempty,
                std::unordered_map<qry::RelSet, uint64_t>* counts)
      : db_(database),
        query_(query),
        graph_(query),
        max_rows_(max_rows),
        require_nonempty_(require_nonempty),
        counts_(counts) {}

  bool Run() {
    for (int pos = 0; pos < query_.num_tables(); ++pos) {
      const int32_t table_id = query_.tables[pos];
      scans_.push_back(exec::BatchScan(db_.table(table_id), table_id, nullptr,
                                       query_.PredicatesOf(pos), {}));
      if (!Record(qry::Bit(pos), *scans_.back())) return false;
    }
    for (int pos = 0; pos < query_.num_tables(); ++pos) {
      if (!Visit(qry::Bit(pos), *scans_[static_cast<size_t>(pos)])) {
        return false;
      }
    }
    return true;
  }

 private:
  bool Record(qry::RelSet rels, const exec::RowSet& rows) {
    (*counts_)[rels] = rows.num_rows();
    return !require_nonempty_ || rows.num_rows() > 0;
  }

  /// Highest position of `rels` whose removal leaves it connected.
  int ParentTable(qry::RelSet rels) const {
    for (int pos = 31 - __builtin_clz(rels); pos >= 0; --pos) {
      if (qry::Contains(rels, pos) && graph_.IsConnected(rels & ~qry::Bit(pos))) {
        return pos;
      }
    }
    return -1;
  }

  /// Joins each child of `rels` (rows in `parent`) and recurses.
  bool Visit(qry::RelSet rels, const exec::RowSet& parent) {
    qry::RelSet next = graph_.Neighbors(rels) & ~rels;
    for (; next != 0; next &= next - 1) {
      const int pos = __builtin_ctz(next);
      const qry::RelSet child = rels | qry::Bit(pos);
      if (ParentTable(child) != pos) continue;
      bool overflow = false;
      const exec::RowSetPtr rows = Join(rels, parent, pos, &overflow);
      if (overflow || !Record(child, *rows) || !Visit(child, *rows)) {
        return false;
      }
    }
    return true;
  }

  /// `parent` (the rows of `rels`) joined to the scan of `pos`, the smaller
  /// side building. The output keeps the row ids of the tables with an edge
  /// leaving the child — none for the whole query, a count-only join.
  exec::RowSetPtr Join(qry::RelSet rels, const exec::RowSet& parent, int pos,
                       bool* overflow) const {
    const exec::RowSet& scan = *scans_[static_cast<size_t>(pos)];
    const bool scan_builds = scan.num_rows() <= parent.num_rows();
    const exec::RowSet& outer = scan_builds ? parent : scan;
    const exec::RowSet& inner = scan_builds ? scan : parent;
    // Each crossing edge as (outer column, inner column): the first drives
    // the hash join, any others stay behind as residual filters.
    std::vector<std::pair<db::ColRef, db::ColRef>> residual;
    for (int join_idx : graph_.JoinsBetween(rels, qry::Bit(pos))) {
      const qry::Join& join = query_.joins[static_cast<size_t>(join_idx)];
      const bool left_in_scan = query_.PositionOf(join.left.table) == pos;
      const db::ColRef parent_col = left_in_scan ? join.right : join.left;
      const db::ColRef scan_col = left_in_scan ? join.left : join.right;
      residual.emplace_back(scan_builds ? parent_col : scan_col,
                            scan_builds ? scan_col : parent_col);
    }
    const auto [outer_key, inner_key] = residual.front();
    residual.erase(residual.begin());
    const qry::RelSet child = rels | qry::Bit(pos);
    std::vector<int32_t> out_rid_tables;
    for (qry::RelSet s = child; s != 0; s &= s - 1) {
      const int p = __builtin_ctz(s);
      if ((graph_.Neighbors(qry::Bit(p)) & ~child) != 0) {
        out_rid_tables.push_back(query_.tables[p]);
      }
    }
    return exec::LateHashJoin(db_, outer, inner, outer_key, inner_key,
                              residual, {}, out_rid_tables, max_rows_,
                              overflow);
  }

  const db::Database& db_;
  const qry::Query& query_;
  const qry::JoinGraph graph_;
  const size_t max_rows_;
  const bool require_nonempty_;
  std::unordered_map<qry::RelSet, uint64_t>* counts_;
  std::vector<exec::RowSetPtr> scans_;  // by table position
};

}  // namespace

bool HashJoinCountConnectedSubsets(
    const db::Database& database, const qry::Query& query,
    size_t max_node_rows, bool require_nonempty,
    std::unordered_map<qry::RelSet, uint64_t>* counts) {
  return SubsetCounter(database, query, max_node_rows, require_nonempty, counts)
      .Run();
}

bool ReferenceAcceptQuery(const db::Database& database,
                          const wk::GeneratorOptions& options,
                          wk::LabeledQuery* labeled) {
  const qry::Query& query = labeled->query;
  wk::LabeledQuery probe;
  probe.query = query;
  if (!CanonicalPlanLabel(database, &probe, options.max_node_rows)) return false;
  if (options.require_nonempty && probe.FinalCard() == 0) return false;
  if (options.validate_all_subsets && options.max_node_rows > 0) {
    for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
      if (!query.IsConnected(rels) || qry::PopCount(rels) < 2) continue;
      if (probe.true_cards.count(rels) > 0) continue;  // already bounded
      wk::LabeledQuery sub;
      sub.query = qry::BuildSubQuery(query, rels);
      if (!CanonicalPlanLabel(database, &sub, options.max_node_rows)) {
        return false;
      }
    }
  }
  labeled->true_cards.clear();
  const bool ok = CanonicalPlanLabel(database, labeled, /*max_node_rows=*/0);
  LPCE_CHECK(ok);
  return true;
}

}  // namespace lpce::testing
