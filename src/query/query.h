// SPJA query representation (paper Sec. 3): SELECT COUNT(*) over a set of
// tables connected by equi-join edges, with per-table filter predicates.
#ifndef LPCE_QUERY_QUERY_H_
#define LPCE_QUERY_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"

namespace lpce::qry {

using db::ColRef;

enum class CmpOp { kLt = 0, kLe, kEq, kGe, kGt, kNe };
inline constexpr int kNumCmpOps = 6;

const char* CmpOpName(CmpOp op);
bool EvalCmp(int64_t lhs, CmpOp op, int64_t rhs);

/// A filter predicate `column op value` on a base table.
struct Predicate {
  ColRef col;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;

  bool operator==(const Predicate& other) const = default;
};

/// One equi-join `left = right` between two tables of the query.
struct Join {
  ColRef left;
  ColRef right;

  bool operator==(const Join& other) const = default;
};

/// Set of query tables, as a bitmask over positions in Query::tables.
using RelSet = uint32_t;

inline int PopCount(RelSet s) { return __builtin_popcount(s); }
inline RelSet Bit(int pos) { return RelSet{1} << pos; }
inline bool Contains(RelSet s, int pos) { return (s >> pos) & 1u; }

/// A COUNT(*) select-project-equijoin query. Generated/parsed queries form a
/// spanning tree over `tables` (the schema's FK graph), where any partition
/// of a connected table set into two connected halves is linked by exactly
/// one join edge. Hand-built queries may be multigraphs (several edges
/// between the same table pair); the planner then drives each join with one
/// edge and applies the extra cut edges as residual filters
/// (exec::PlanNode::residual_keys).
struct Query {
  std::vector<int32_t> tables;       // catalog table ids; each appears once
  std::vector<Join> joins;           // >= tables.size() - 1 edges
  std::vector<Predicate> predicates; // at most one per table

  int num_tables() const { return static_cast<int>(tables.size()); }
  int num_joins() const { return static_cast<int>(joins.size()); }
  RelSet AllRels() const { return (RelSet{1} << tables.size()) - 1; }

  /// Position of a catalog table id within `tables`, or -1.
  int PositionOf(int32_t table_id) const;
  /// Predicates that apply to the table at `pos` (0 or 1 of them).
  std::vector<Predicate> PredicatesOf(int pos) const;
  /// The three questions below scan `joins` with qry::JoinGraph::Edge's
  /// test (query/join_graph.h) and build no graph; code asking many of them
  /// builds one qry::JoinGraph and asks it.
  /// True if the tables in `s` form a connected subgraph of the join tree.
  bool IsConnected(RelSet s) const;
  /// Join edges with one side in `a` and the other in `b`.
  std::vector<int> JoinsBetween(RelSet a, RelSet b) const;
  /// Join edges fully inside `s`.
  std::vector<int> JoinsWithin(RelSet s) const;

  std::string ToString(const db::Catalog& catalog) const;

  /// Same tables, joins and predicates (literals included), in order.
  bool operator==(const Query& other) const = default;
};

/// A canonical logical plan tree for a table subset: relations are added in
/// ascending position order as a left-deep chain (always connected). Tree
/// models (TLSTM, LPCE) consume these trees; the cardinality of a subset does
/// not depend on the tree shape, so one canonical shape per subset suffices
/// (see DESIGN.md).
struct LogicalNode {
  RelSet rels = 0;
  int table_pos = -1;                 // >= 0 for leaves
  int join_idx = -1;                  // joining edge index for internal nodes
  std::unique_ptr<LogicalNode> left;  // null for leaves
  std::unique_ptr<LogicalNode> right;

  bool is_leaf() const { return table_pos >= 0; }
};

/// Builds the canonical left-deep tree for the (connected) subset `s`.
std::unique_ptr<LogicalNode> BuildCanonicalTree(const Query& query, RelSet s);

/// Builds a logical tree mirroring an arbitrary shape: `shape(left, right)`
/// pairs by subset; used to turn executed physical plans into logical trees.
std::unique_ptr<LogicalNode> BuildLeafNode(const Query& query, int table_pos);
std::unique_ptr<LogicalNode> BuildJoinNode(const Query& query,
                                           std::unique_ptr<LogicalNode> left,
                                           std::unique_ptr<LogicalNode> right);

/// Collects every node of a logical tree in post-order (children first).
void PostOrder(const LogicalNode* root, std::vector<const LogicalNode*>* out);

/// Extracts the standalone sub-query over a connected subset: its tables,
/// the join edges inside the subset, and the predicates on those tables.
Query BuildSubQuery(const Query& query, RelSet rels);

}  // namespace lpce::qry

#endif  // LPCE_QUERY_QUERY_H_
