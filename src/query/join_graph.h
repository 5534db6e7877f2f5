// The join graph of one query as bit masks over table positions: every
// connectivity question about relation sets (is a set connected, which edges
// cross a cut, how many edges lie inside a set) is a few bit operations
// instead of a scan of Query::joins with PositionOf lookups. The canonical
// trees, the LPCE chain pass and the DP planner answer those questions
// here; the one-off Query methods of the same names use its Edge test.
// Passes that visit every subset (the chain pass, the DP) read connectivity
// and neighbours from one incremental SubsetsOf pass instead of a BFS each.
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

  /// What SubsetsOf knows about one subset of a unit list.
  struct Subset {
    RelSet covered = 0;    // tables of the subset's units
    RelSet neighbors = 0;  // Neighbors(covered)
    bool connected = false;
  };

  /// One incremental pass over every subset of `num_units` pairwise-disjoint,
  /// connected table sets: (*out)[m] describes the units whose bits are set
  /// in m ((*out)[0] is empty and unconnected). Each mask extends the mask
  /// without its lowest unit. A set M of two or more units is connected iff,
  /// for some member u, M without u is connected and adjacent to u; since the
  /// units are connected, that is exactly when their tables are. `out` is
  /// resized, so a caller's scratch vector keeps its capacity.
  void SubsetsOf(const RelSet* units, int num_units,
                 std::vector<Subset>* out) const;

  /// SubsetsOf over one unit per table: (*out)[s] for every RelSet s of the
  /// query.
  void AllSubsets(std::vector<Subset>* out) const;

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
  int num_tables_ = 0;
  std::vector<Edge> edges_;            // one per Query::joins entry, in order
  std::array<RelSet, 32> adjacent_{};  // by table position
};

}  // namespace lpce::qry

#endif  // LPCE_QUERY_JOIN_GRAPH_H_
