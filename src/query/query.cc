#include "query/query.h"

#include <memory>
#include <sstream>

#include "query/join_graph.h"

namespace lpce::qry {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kNe:
      return "<>";
  }
  return "?";
}

bool EvalCmp(int64_t lhs, CmpOp op, int64_t rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

int Query::PositionOf(int32_t table_id) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table_id) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Predicate> Query::PredicatesOf(int pos) const {
  std::vector<Predicate> out;
  for (const auto& p : predicates) {
    if (p.col.table == tables[pos]) out.push_back(p);
  }
  return out;
}

bool Query::IsConnected(RelSet s) const {
  if (s == 0) return false;
  RelSet reached = Bit(__builtin_ctz(s));
  for (RelSet before = 0; before != reached;) {
    before = reached;
    for (const Join& join : joins) {
      const JoinGraph::Edge edge = JoinGraph::Edge::Of(*this, join);
      if (edge.Inside(s) && edge.Crosses(reached, s)) {
        reached |= edge.left | edge.right;
      }
    }
  }
  return reached == s;
}

std::vector<int> Query::JoinsBetween(RelSet a, RelSet b) const {
  std::vector<int> out;
  for (size_t i = 0; i < joins.size(); ++i) {
    if (JoinGraph::Edge::Of(*this, joins[i]).Crosses(a, b)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> Query::JoinsWithin(RelSet s) const {
  std::vector<int> out;
  for (size_t i = 0; i < joins.size(); ++i) {
    if (JoinGraph::Edge::Of(*this, joins[i]).Inside(s)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::string Query::ToString(const db::Catalog& catalog) const {
  std::ostringstream os;
  os << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << catalog.table(tables[i]).name;
  }
  os << " WHERE ";
  bool first = true;
  for (const auto& j : joins) {
    if (!first) os << " AND ";
    first = false;
    os << catalog.ColumnName(j.left) << " = " << catalog.ColumnName(j.right);
  }
  for (const auto& p : predicates) {
    if (!first) os << " AND ";
    first = false;
    os << catalog.ColumnName(p.col) << " " << CmpOpName(p.op) << " " << p.value;
  }
  return os.str();
}

std::unique_ptr<LogicalNode> BuildLeafNode(const Query& query, int table_pos) {
  LPCE_CHECK(table_pos >= 0 && table_pos < query.num_tables());
  auto node = std::make_unique<LogicalNode>();
  node->rels = Bit(table_pos);
  node->table_pos = table_pos;
  return node;
}

std::unique_ptr<LogicalNode> BuildJoinNode(const Query& query,
                                           std::unique_ptr<LogicalNode> left,
                                           std::unique_ptr<LogicalNode> right) {
  auto joins = query.JoinsBetween(left->rels, right->rels);
  // Spanning-tree queries (everything the parser admits) cut exactly one
  // edge per partition; multigraph queries may cut several — the first edge
  // drives the join and the physical layer applies the rest as residual
  // filters (exec::PlanNode::residual_keys).
  LPCE_CHECK_MSG(!joins.empty(), "join tree partition must cut at least one edge");
  auto node = std::make_unique<LogicalNode>();
  node->rels = left->rels | right->rels;
  node->join_idx = joins[0];
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

std::unique_ptr<LogicalNode> BuildCanonicalTree(const Query& query, RelSet s) {
  const JoinGraph graph(query);
  LPCE_CHECK_MSG(graph.IsConnected(s), "canonical tree needs a connected subset");
  // Greedy left-deep: start at the lowest position, repeatedly attach the
  // lowest-position table connected to the current prefix.
  std::unique_ptr<LogicalNode> acc = BuildLeafNode(query, __builtin_ctz(s));
  RelSet remaining = s & ~acc->rels;
  while (remaining != 0) {
    const RelSet attachable = graph.Neighbors(acc->rels) & remaining;
    LPCE_CHECK(attachable != 0);
    const int next = __builtin_ctz(attachable);
    auto node = std::make_unique<LogicalNode>();
    node->rels = acc->rels | Bit(next);
    node->join_idx = graph.FirstJoinBetween(acc->rels, Bit(next));
    node->left = std::move(acc);
    node->right = BuildLeafNode(query, next);
    acc = std::move(node);
    remaining &= ~Bit(next);
  }
  return acc;
}

Query BuildSubQuery(const Query& query, RelSet rels) {
  Query sub;
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (Contains(rels, pos)) sub.tables.push_back(query.tables[pos]);
  }
  for (int join_idx : query.JoinsWithin(rels)) {
    sub.joins.push_back(query.joins[join_idx]);
  }
  for (const auto& pred : query.predicates) {
    if (sub.PositionOf(pred.col.table) >= 0) sub.predicates.push_back(pred);
  }
  return sub;
}

void PostOrder(const LogicalNode* root, std::vector<const LogicalNode*>* out) {
  if (root == nullptr) return;
  PostOrder(root->left.get(), out);
  PostOrder(root->right.get(), out);
  out->push_back(root);
}

}  // namespace lpce::qry
