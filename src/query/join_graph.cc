#include "query/join_graph.h"

#include "common/check.h"

namespace lpce::qry {

JoinGraph::JoinGraph(const Query& query) : num_tables_(query.num_tables()) {
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

void JoinGraph::SubsetsOf(const RelSet* units, int num_units,
                          std::vector<Subset>* out) const {
  LPCE_CHECK(num_units >= 0 && num_units <= 30);
  const uint32_t num_masks = uint32_t{1} << num_units;
  out->resize(num_masks);
  Subset* subsets = out->data();
  subsets[0] = {};
  for (uint32_t mask = 1; mask < num_masks; ++mask) {
    Subset& subset = subsets[mask];
    const int low = __builtin_ctz(mask);
    const uint32_t rest = mask & (mask - 1);
    if (rest == 0) {
      subset = {units[low], Neighbors(units[low]), true};
      continue;
    }
    const Subset& unit = subsets[uint32_t{1} << low];
    subset.covered = subsets[rest].covered | unit.covered;
    subset.neighbors = subsets[rest].neighbors | unit.neighbors;
    subset.connected = false;
    for (uint32_t left = mask; left != 0; left &= left - 1) {
      const uint32_t bit = left & (~left + 1);
      const Subset& others = subsets[mask ^ bit];
      if (others.connected && (others.neighbors & subsets[bit].covered) != 0) {
        subset.connected = true;
        break;
      }
    }
  }
}

void JoinGraph::AllSubsets(std::vector<Subset>* out) const {
  std::array<RelSet, 32> tables{};
  for (int pos = 0; pos < num_tables_; ++pos) tables[pos] = Bit(pos);
  SubsetsOf(tables.data(), num_tables_, out);
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
