// The join graph of one query as bit masks over table positions: every
// connectivity question about relation sets (is a set connected, which edges
// cross a cut, how many edges lie inside a set) is a few bit operations
// instead of a scan of Query::joins with PositionOf lookups. The canonical
// trees, the LPCE chain pass and the DP planner answer those questions
// here; the one-off Query methods of the same names use its Edge test.
#ifndef LPCE_QUERY_JOIN_GRAPH_H_
#define LPCE_QUERY_JOIN_GRAPH_H_

#include <array>
#include <vector>

#include "query/query.h"

namespace lpce::qry {

class JoinGraph {
 public:
  /// One join as the bits of its two tables: the edge test every question
  /// below reduces to. The per-call Query methods use it directly over
  /// Query::joins, so they need no JoinGraph and allocate no edge list.
  struct Edge {
    RelSet left;   // bit of the left table
    RelSet right;  // bit of the right table
    static Edge Of(const Query& query, const Join& join) {
      return {Bit(query.PositionOf(join.left.table)),
              Bit(query.PositionOf(join.right.table))};
    }
    bool Crosses(RelSet a, RelSet b) const {
      return ((left & a) != 0 && (right & b) != 0) ||
             ((right & a) != 0 && (left & b) != 0);
    }
    bool Inside(RelSet s) const { return ((left | right) & ~s) == 0; }
  };

  explicit JoinGraph(const Query& query);

  /// Tables joined to some table of `s`.
  RelSet Neighbors(RelSet s) const {
    RelSet out = 0;
    for (; s != 0; s &= s - 1) out |= adjacent_[__builtin_ctz(s)];
    return out;
  }

  /// True if the tables in `s` form a connected subgraph.
  bool IsConnected(RelSet s) const;

  /// Join edges (ascending indices into Query::joins) with one side in `a`
  /// and the other in `b`.
  std::vector<int> JoinsBetween(RelSet a, RelSet b) const;
  /// JoinsBetween(a, b)[0]; -1 when no edge crosses.
  int FirstJoinBetween(RelSet a, RelSet b) const;

  /// Join edges (ascending indices) with both sides in `s`.
  std::vector<int> JoinsWithin(RelSet s) const;
  /// JoinsWithin(s).size().
  int CountJoinsWithin(RelSet s) const;

 private:
  std::vector<Edge> edges_;            // one per Query::joins entry, in order
  std::array<RelSet, 32> adjacent_{};  // by table position
};

}  // namespace lpce::qry

#endif  // LPCE_QUERY_JOIN_GRAPH_H_
