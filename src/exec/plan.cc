#include "exec/plan.h"

#include <charconv>
#include <cstdio>

namespace lpce::exec {

const char* PhysOpName(PhysOp op) {
  switch (op) {
    case PhysOp::kSeqScan:
      return "SeqScan";
    case PhysOp::kIndexScan:
      return "IndexScan";
    case PhysOp::kHashJoin:
      return "HashJoin";
    case PhysOp::kMergeJoin:
      return "MergeJoin";
    case PhysOp::kNestLoopJoin:
      return "NestLoopJoin";
    case PhysOp::kPseudoScan:
      return "PseudoScan";
  }
  return "?";
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->rels = rels;
  copy->table_pos = table_pos;
  copy->filters = filters;
  copy->index_col = index_col;
  copy->pseudo = pseudo;
  copy->outer_key = outer_key;
  copy->inner_key = inner_key;
  copy->residual_keys = residual_keys;
  copy->est_card = est_card;
  copy->est_cost = est_cost;
  if (outer != nullptr) copy->outer = outer->Clone();
  if (inner != nullptr) copy->inner = inner->Clone();
  return copy;
}

namespace {

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, end);
}

void AppendColumn(std::string* out, const db::Catalog& catalog,
                  db::ColRef ref) {
  const db::TableDef& table = catalog.table(ref.table);
  out->append(table.name);
  out->push_back('.');
  out->append(table.columns[ref.column].name);
}

/// Appends `node`'s subtree, one line per node, into one buffer.
void AppendPlan(const PlanNode& node, const db::Catalog& catalog,
                const qry::Query& query, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(PhysOpName(node.op));
  if (node.op == PhysOp::kSeqScan || node.op == PhysOp::kIndexScan) {
    out->push_back(' ');
    out->append(catalog.table(query.tables[node.table_pos]).name);
    for (const auto& f : node.filters) {
      out->append(" [");
      AppendColumn(out, catalog, f.col);
      out->push_back(' ');
      out->append(qry::CmpOpName(f.op));
      out->push_back(' ');
      AppendInt(out, f.value);
      out->push_back(']');
    }
  } else if (node.op == PhysOp::kPseudoScan) {
    out->append(" (materialized intermediate)");
  } else {
    out->append(" (");
    AppendColumn(out, catalog, node.outer_key);
    out->append(" = ");
    AppendColumn(out, catalog, node.inner_key);
    out->push_back(')');
    for (const auto& [outer_col, inner_col] : node.residual_keys) {
      out->append(" [");
      AppendColumn(out, catalog, outer_col);
      out->append(" = ");
      AppendColumn(out, catalog, inner_col);
      out->push_back(']');
    }
  }
  out->append("  est=");
  AppendInt(out, static_cast<int64_t>(node.est_card));
  if (node.executed) {
    out->append(" actual=");
    AppendInt(out, node.actual_card);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " time=%.2fms", node.exec_seconds * 1e3);
    out->append(buf);
  }
  out->push_back('\n');
  if (node.outer != nullptr) {
    AppendPlan(*node.outer, catalog, query, indent + 1, out);
  }
  if (node.inner != nullptr) {
    AppendPlan(*node.inner, catalog, query, indent + 1, out);
  }
}

}  // namespace

std::string PlanNode::ToString(const db::Catalog& catalog, const qry::Query& query,
                               int indent) const {
  std::string out;
  AppendPlan(*this, catalog, query, indent, &out);
  return out;
}

Status ValidatePlan(const PlanNode& root, const qry::Query& query) {
  // Root must cover exactly the query's tables.
  if (root.rels != query.AllRels()) {
    return Status::Internal("plan root does not cover the query's tables");
  }
  std::vector<const PlanNode*> nodes;
  PostOrderPlan(&root, &nodes);
  for (const PlanNode* node : nodes) {
    if (node->is_join()) {
      if (node->outer == nullptr || node->inner == nullptr) {
        return Status::Internal("join node missing a child");
      }
      if ((node->outer->rels & node->inner->rels) != 0 ||
          (node->outer->rels | node->inner->rels) != node->rels) {
        return Status::Internal("join children do not partition the node set");
      }
      const auto joins = query.JoinsBetween(node->outer->rels, node->inner->rels);
      if (joins.empty()) {
        return Status::Internal("join cut crosses no query edge");
      }
      if (node->residual_keys.size() + 1 != joins.size()) {
        return Status::Internal(
            "join must carry every cut edge: one primary key pair plus one "
            "residual pair per additional edge");
      }
      // The primary pair and every residual pair must each match a distinct
      // cut edge (either orientation), with the outer column provided by the
      // outer side and the inner column by the inner side.
      std::vector<bool> used(joins.size(), false);
      auto match_pair = [&](const db::ColRef& outer_col,
                            const db::ColRef& inner_col) {
        for (size_t j = 0; j < joins.size(); ++j) {
          if (used[j]) continue;
          const qry::Join& join = query.joins[joins[j]];
          const bool straight = join.left == outer_col && join.right == inner_col;
          const bool flipped = join.right == outer_col && join.left == inner_col;
          if (straight || flipped) {
            used[j] = true;
            return true;
          }
        }
        return false;
      };
      auto sides_ok = [&](const db::ColRef& outer_col,
                          const db::ColRef& inner_col) {
        const int outer_pos = query.PositionOf(outer_col.table);
        const int inner_pos = query.PositionOf(inner_col.table);
        return outer_pos >= 0 && qry::Contains(node->outer->rels, outer_pos) &&
               inner_pos >= 0 && qry::Contains(node->inner->rels, inner_pos);
      };
      if (!match_pair(node->outer_key, node->inner_key)) {
        return Status::Internal("join keys do not match a cut edge");
      }
      if (!sides_ok(node->outer_key, node->inner_key)) {
        return Status::Internal("join key column not provided by its side");
      }
      for (const auto& [outer_col, inner_col] : node->residual_keys) {
        if (!match_pair(outer_col, inner_col)) {
          return Status::Internal("residual keys do not match a cut edge");
        }
        if (!sides_ok(outer_col, inner_col)) {
          return Status::Internal("residual key column not provided by its side");
        }
      }
    } else if (node->op == PhysOp::kPseudoScan) {
      if (node->pseudo == nullptr) {
        return Status::Internal("pseudo scan without a materialized result");
      }
      if (node->outer != nullptr || node->inner != nullptr) {
        return Status::Internal("pseudo scan must be a leaf");
      }
    } else {
      if (node->table_pos < 0 || node->table_pos >= query.num_tables()) {
        return Status::Internal("scan references a table outside the query");
      }
      if (node->rels != qry::Bit(node->table_pos)) {
        return Status::Internal("scan relation set must be its own table");
      }
      if (node->op == PhysOp::kIndexScan && node->index_col.table < 0) {
        return Status::Internal("index scan without a driving column");
      }
      for (const auto& filter : node->filters) {
        if (filter.col.table != query.tables[node->table_pos]) {
          return Status::Internal("scan filter on a different table");
        }
      }
    }
  }
  return Status::Ok();
}

void PostOrderPlan(PlanNode* root, std::vector<PlanNode*>* out) {
  if (root == nullptr) return;
  PostOrderPlan(root->outer.get(), out);
  PostOrderPlan(root->inner.get(), out);
  out->push_back(root);
}

void PostOrderPlan(const PlanNode* root, std::vector<const PlanNode*>* out) {
  if (root == nullptr) return;
  PostOrderPlan(root->outer.get(), out);
  PostOrderPlan(root->inner.get(), out);
  out->push_back(root);
}

}  // namespace lpce::exec
