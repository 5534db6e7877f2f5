#include "workload/workload.h"

#include <algorithm>
#include <cstdio>

#include "exec/executor.h"
#include "exec/vectorized.h"
#include "query/join_graph.h"

namespace lpce::wk {

qry::Query QueryGenerator::Generate(int num_joins) {
  return GenerateOne(num_joins).query;
}

LabeledQuery QueryGenerator::GenerateOne(int num_joins) {
  const db::Catalog& cat = db_->catalog();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    qry::Query query;
    // Grow a random connected subtree of the FK graph.
    std::vector<bool> used(cat.num_tables(), false);
    const int32_t start =
        static_cast<int32_t>(rng_.Uniform(static_cast<uint64_t>(cat.num_tables())));
    query.tables.push_back(start);
    used[start] = true;
    while (query.num_joins() < num_joins) {
      // Frontier: edges with exactly one endpoint inside.
      std::vector<const db::JoinEdgeDef*> frontier;
      for (const auto& edge : cat.join_edges()) {
        const bool l = used[edge.left.table];
        const bool r = used[edge.right.table];
        if (l != r) frontier.push_back(&edge);
      }
      if (frontier.empty()) break;
      const db::JoinEdgeDef* pick = frontier[rng_.Uniform(frontier.size())];
      const int32_t next = used[pick->left.table] ? pick->right.table
                                                  : pick->left.table;
      query.tables.push_back(next);
      used[next] = true;
      query.joins.push_back({pick->left, pick->right});
    }
    if (query.num_joins() != num_joins) continue;  // graph exhausted; retry

    // Predicates: operand values are sampled from live rows so that
    // selectivities spread over the full range. Column choice is biased
    // toward non-key attribute columns — their values are correlated across
    // tables (as on real IMDB), which is exactly where independence-based
    // estimators break (paper Sec. 7.1).
    for (int32_t table_id : query.tables) {
      if (!rng_.Bernoulli(options_.predicate_prob)) continue;
      const db::Table& table = db_->table(table_id);
      if (table.num_rows() == 0) continue;
      // Key columns of this table (id + any FK participating in an edge).
      auto is_key_column = [&](int32_t c) {
        if (c == 0) return true;  // the id primary key
        for (const auto& edge : cat.join_edges()) {
          if ((edge.left.table == table_id && edge.left.column == c) ||
              (edge.right.table == table_id && edge.right.column == c)) {
            return true;
          }
        }
        return false;
      };
      int32_t col = static_cast<int32_t>(rng_.Uniform(table.num_columns()));
      if (is_key_column(col) && rng_.Bernoulli(0.85)) {
        // Re-draw among non-key columns when any exist.
        std::vector<int32_t> attrs;
        for (int32_t c = 0; c < static_cast<int32_t>(table.num_columns()); ++c) {
          if (!is_key_column(c)) attrs.push_back(c);
        }
        if (!attrs.empty()) col = attrs[rng_.Uniform(attrs.size())];
      }
      const int64_t value =
          table.at(rng_.Uniform(table.num_rows()), static_cast<size_t>(col));
      // Range predicates dominate (as in the JOB-light style workloads);
      // equality and inequality appear with lower probability.
      qry::CmpOp op;
      const double roll = rng_.UniformDouble();
      if (roll < 0.25) {
        op = qry::CmpOp::kLt;
      } else if (roll < 0.5) {
        op = qry::CmpOp::kGt;
      } else if (roll < 0.65) {
        op = qry::CmpOp::kLe;
      } else if (roll < 0.8) {
        op = qry::CmpOp::kGe;
      } else if (roll < 0.93) {
        op = qry::CmpOp::kEq;
      } else {
        op = qry::CmpOp::kNe;
      }
      query.predicates.push_back({{table_id, col}, op, value});
    }

    LabeledQuery labeled;
    labeled.query = std::move(query);
    if (validator_(*db_, options_, &labeled)) return labeled;
  }
  LPCE_CHECK_MSG(false, "query generation exhausted attempts");
  return {};
}

std::vector<LabeledQuery> QueryGenerator::GenerateLabeled(int count, int min_joins,
                                                          int max_joins) {
  std::vector<LabeledQuery> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int joins =
        static_cast<int>(rng_.UniformInt(min_joins, max_joins));
    out.push_back(GenerateOne(joins));
  }
  return out;
}

namespace {

/// The depth-first pass of CountConnectedSubsets. Every connected subset of
/// two or more tables has one parent: the subset minus its highest-position
/// table whose removal leaves it connected (a connected graph always has a
/// non-cut vertex). The pass walks that tree from the single tables, so each
/// subset is joined exactly once, from its parent's rows.
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

bool CountConnectedSubsets(const db::Database& database, const qry::Query& query,
                           size_t max_node_rows, bool require_nonempty,
                           std::unordered_map<qry::RelSet, uint64_t>* counts) {
  return SubsetCounter(database, query, max_node_rows, require_nonempty, counts)
      .Run();
}

bool AcceptQuery(const db::Database& database, const GeneratorOptions& options,
                 LabeledQuery* labeled) {
  if (!options.validate_all_subsets || options.max_node_rows == 0) {
    // The canonical plan's run bounds its own nodes and labels them.
    if (!TryLabelQuery(database, labeled, options.max_node_rows)) return false;
    return !options.require_nonempty || labeled->FinalCard() > 0;
  }
  // Canonical-plan nodes are connected subsets and scans are uncapped, so
  // the pass's decision is the canonical run's and every subset's together.
  std::unordered_map<qry::RelSet, uint64_t> counts;
  if (!CountConnectedSubsets(database, labeled->query, options.max_node_rows,
                             options.require_nonempty, &counts)) {
    return false;
  }
  const auto tree =
      qry::BuildCanonicalTree(labeled->query, labeled->query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(tree.get(), &nodes);
  for (const qry::LogicalNode* node : nodes) {
    labeled->true_cards[node->rels] = counts.at(node->rels);
  }
  return true;
}

void LabelQuery(const db::Database& database, LabeledQuery* out) {
  const bool ok = TryLabelQuery(database, out, /*max_node_rows=*/0);
  LPCE_CHECK(ok);
}

bool TryLabelQuery(const db::Database& database, LabeledQuery* out,
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

uint64_t MaxCardinality(const std::vector<LabeledQuery>& workload) {
  uint64_t max_card = 1;
  for (const auto& q : workload) {
    for (const auto& [rels, card] : q.true_cards) {
      max_card = std::max(max_card, card);
    }
  }
  return max_card;
}

namespace {

void WriteU64(std::FILE* f, uint64_t v) { std::fwrite(&v, sizeof(v), 1, f); }
void WriteI64(std::FILE* f, int64_t v) { std::fwrite(&v, sizeof(v), 1, f); }
void WriteI32(std::FILE* f, int32_t v) { std::fwrite(&v, sizeof(v), 1, f); }

bool ReadU64(std::FILE* f, uint64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }
bool ReadI64(std::FILE* f, int64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }
bool ReadI32(std::FILE* f, int32_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }

constexpr uint64_t kMagic = 0x4C50434557514C44ull;  // "LPCEWQLD"

}  // namespace

Status SaveWorkload(const std::vector<LabeledQuery>& workload,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  WriteU64(f, kMagic);
  WriteU64(f, workload.size());
  for (const auto& labeled : workload) {
    const qry::Query& q = labeled.query;
    WriteU64(f, q.tables.size());
    for (int32_t t : q.tables) WriteI32(f, t);
    WriteU64(f, q.joins.size());
    for (const auto& j : q.joins) {
      WriteI32(f, j.left.table);
      WriteI32(f, j.left.column);
      WriteI32(f, j.right.table);
      WriteI32(f, j.right.column);
    }
    WriteU64(f, q.predicates.size());
    for (const auto& p : q.predicates) {
      WriteI32(f, p.col.table);
      WriteI32(f, p.col.column);
      WriteI32(f, static_cast<int32_t>(p.op));
      WriteI64(f, p.value);
    }
    WriteU64(f, labeled.true_cards.size());
    for (const auto& [rels, card] : labeled.true_cards) {
      WriteU64(f, rels);
      WriteU64(f, card);
    }
  }
  std::fclose(f);
  return Status::Ok();
}

Status LoadWorkload(const std::string& path, std::vector<LabeledQuery>* workload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot read " + path);
  auto fail = [&](const char* what) {
    std::fclose(f);
    return Status::IoError(std::string(what) + ": " + path);
  };
  uint64_t magic = 0, count = 0;
  if (!ReadU64(f, &magic) || magic != kMagic) return fail("bad magic");
  if (!ReadU64(f, &count) || count > 10'000'000) return fail("bad count");
  workload->clear();
  workload->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LabeledQuery labeled;
    qry::Query& q = labeled.query;
    uint64_t n = 0;
    if (!ReadU64(f, &n) || n > 64) return fail("bad table count");
    q.tables.resize(n);
    for (auto& t : q.tables) {
      if (!ReadI32(f, &t)) return fail("truncated tables");
    }
    if (!ReadU64(f, &n) || n > 64) return fail("bad join count");
    q.joins.resize(n);
    for (auto& j : q.joins) {
      if (!ReadI32(f, &j.left.table) || !ReadI32(f, &j.left.column) ||
          !ReadI32(f, &j.right.table) || !ReadI32(f, &j.right.column)) {
        return fail("truncated joins");
      }
    }
    if (!ReadU64(f, &n) || n > 128) return fail("bad predicate count");
    q.predicates.resize(n);
    for (auto& p : q.predicates) {
      int32_t op = 0;
      if (!ReadI32(f, &p.col.table) || !ReadI32(f, &p.col.column) ||
          !ReadI32(f, &op) || !ReadI64(f, &p.value)) {
        return fail("truncated predicates");
      }
      p.op = static_cast<qry::CmpOp>(op);
    }
    if (!ReadU64(f, &n) || n > 4096) return fail("bad label count");
    for (uint64_t k = 0; k < n; ++k) {
      uint64_t rels = 0, card = 0;
      if (!ReadU64(f, &rels) || !ReadU64(f, &card)) return fail("truncated labels");
      labeled.true_cards[static_cast<qry::RelSet>(rels)] = card;
    }
    workload->push_back(std::move(labeled));
  }
  std::fclose(f);
  return Status::Ok();
}

}  // namespace lpce::wk
