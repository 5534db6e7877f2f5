#include "query/join_graph.h"

namespace lpce::qry {

JoinGraph::JoinGraph(const Query& query) {
  edges_.reserve(query.joins.size());
  for (const Join& join : query.joins) {
    const Edge edge = Edge::Of(query, join);
    edges_.push_back(edge);
    adjacent_[__builtin_ctz(edge.left)] |= edge.right;
    adjacent_[__builtin_ctz(edge.right)] |= edge.left;
  }
}

bool JoinGraph::IsConnected(RelSet s) const {
  if (s == 0) return false;
  RelSet reached = Bit(__builtin_ctz(s));
  while (true) {
    const RelSet next = reached | (Neighbors(reached) & s);
    if (next == reached) return reached == s;
    reached = next;
  }
}

std::vector<int> JoinGraph::JoinsBetween(RelSet a, RelSet b) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].Crosses(a, b)) out.push_back(static_cast<int>(i));
  }
  return out;
}

int JoinGraph::FirstJoinBetween(RelSet a, RelSet b) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].Crosses(a, b)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> JoinGraph::JoinsWithin(RelSet s) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].Inside(s)) out.push_back(static_cast<int>(i));
  }
  return out;
}

int JoinGraph::CountJoinsWithin(RelSet s) const {
  int count = 0;
  for (const Edge& edge : edges_) count += edge.Inside(s) ? 1 : 0;
  return count;
}

}  // namespace lpce::qry
