// Tests for qry::JoinGraph and the per-call Query methods built on its edge
// test: every answer is checked, on every subset (pair) of generated and
// multigraph queries, against a brute-force scan of Query::joins that shares
// no code with either.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "query/join_graph.h"
#include "query/query.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::qry {
namespace {

/// Positions of the two tables of join `i`.
std::pair<int, int> Ends(const Query& query, size_t i) {
  return {query.PositionOf(query.joins[i].left.table),
          query.PositionOf(query.joins[i].right.table)};
}

std::vector<int> BruteBetween(const Query& query, RelSet a, RelSet b) {
  std::vector<int> out;
  for (size_t i = 0; i < query.joins.size(); ++i) {
    const auto [l, r] = Ends(query, i);
    if ((Contains(a, l) && Contains(b, r)) || (Contains(a, r) && Contains(b, l))) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> BruteWithin(const Query& query, RelSet s) {
  std::vector<int> out;
  for (size_t i = 0; i < query.joins.size(); ++i) {
    const auto [l, r] = Ends(query, i);
    if (Contains(s, l) && Contains(s, r)) out.push_back(static_cast<int>(i));
  }
  return out;
}

RelSet BruteNeighbors(const Query& query, RelSet s) {
  RelSet out = 0;
  for (size_t i = 0; i < query.joins.size(); ++i) {
    const auto [l, r] = Ends(query, i);
    if (Contains(s, l)) out |= Bit(r);
    if (Contains(s, r)) out |= Bit(l);
  }
  return out;
}

/// By definition: non-empty, and no non-empty proper part of `s` is cut
/// off from the rest of `s` by every edge.
bool BruteConnected(const Query& query, RelSet s) {
  if (s == 0) return false;
  for (RelSet part = (s - 1) & s; part != 0; part = (part - 1) & s) {
    if (BruteBetween(query, part, s & ~part).empty()) return false;
  }
  return true;
}

class JoinGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.02;
    database_ = db::BuildSynthImdb(opts);
  }

  /// Generated queries with 1-8 joins, half of them with 1-3 extra edges
  /// between random table pairs (parallel edges and cycles).
  std::vector<Query> Queries() {
    wk::GeneratorOptions gen;
    gen.seed = 1411;
    wk::QueryGenerator generator(database_.get(), gen);
    std::mt19937_64 rng(91);
    std::vector<Query> queries;
    for (int joins = 1; joins <= 8; ++joins) {
      for (int i = 0; i < 4; ++i) {
        Query query = generator.Generate(joins);
        if (i % 2 == 1) {
          const int extra = 1 + static_cast<int>(rng() % 3);
          for (int e = 0; e < extra; ++e) {
            const int a = static_cast<int>(rng() % query.num_tables());
            const int b = static_cast<int>(rng() % query.num_tables());
            if (a == b) continue;
            query.joins.push_back({{query.tables[a], 0}, {query.tables[b], 0}});
          }
        }
        queries.push_back(std::move(query));
      }
    }
    return queries;
  }

  std::unique_ptr<db::Database> database_;
};

TEST_F(JoinGraphTest, EverySubsetMatchesBruteForce) {
  int index = 0;
  std::vector<JoinGraph::Subset> subsets;
  for (const Query& query : Queries()) {
    SCOPED_TRACE("query #" + std::to_string(index++));
    const JoinGraph graph(query);
    graph.AllSubsets(&subsets);
    ASSERT_EQ(subsets.size(), size_t{1} << query.num_tables());
    for (RelSet s = 0; s <= query.AllRels(); ++s) {
      const bool connected = BruteConnected(query, s);
      EXPECT_EQ(graph.IsConnected(s), connected) << "s=" << s;
      EXPECT_EQ(query.IsConnected(s), connected) << "s=" << s;
      EXPECT_EQ(subsets[s].connected, connected) << "s=" << s;
      EXPECT_EQ(subsets[s].covered, s) << "s=" << s;
      EXPECT_EQ(subsets[s].neighbors, BruteNeighbors(query, s)) << "s=" << s;
      const std::vector<int> within = BruteWithin(query, s);
      EXPECT_EQ(graph.JoinsWithin(s), within) << "s=" << s;
      EXPECT_EQ(query.JoinsWithin(s), within) << "s=" << s;
      EXPECT_EQ(graph.CountJoinsWithin(s), static_cast<int>(within.size()))
          << "s=" << s;
      EXPECT_EQ(graph.Neighbors(s), BruteNeighbors(query, s)) << "s=" << s;
    }
  }
}

TEST_F(JoinGraphTest, SubsetsOfPlanUnitsMatchBruteForce) {
  // Planner unit sets after re-optimization: one or two pseudo units (a
  // connected set of two or more tables each), first or last, and one unit
  // per remaining table. A set of units is described by their tables.
  int index = 0;
  int unit_sets = 0;
  std::vector<JoinGraph::Subset> subsets;
  for (const Query& query : Queries()) {
    SCOPED_TRACE("query #" + std::to_string(index++));
    const JoinGraph graph(query);
    std::vector<RelSet> pseudo;
    for (RelSet s = 1; s <= query.AllRels(); ++s) {
      if (PopCount(s) >= 2 && s != query.AllRels() && BruteConnected(query, s)) {
        pseudo.push_back(s);
      }
    }
    // A spread of pseudo units, and a disjoint pair when there is one.
    std::vector<std::vector<RelSet>> groups;
    const size_t stride = std::max<size_t>(1, pseudo.size() / 4);
    for (size_t i = 0; i < pseudo.size(); i += stride) groups.push_back({pseudo[i]});
    for (size_t i = 0; i < pseudo.size() && groups.size() < 6; ++i) {
      for (size_t j = i + 1; j < pseudo.size(); ++j) {
        if ((pseudo[i] & pseudo[j]) == 0) {
          groups.push_back({pseudo[j], pseudo[i]});
          break;
        }
      }
    }
    for (const std::vector<RelSet>& group : groups) {
      for (bool pseudo_first : {true, false}) {
        std::vector<RelSet> units;
        RelSet taken = 0;
        for (RelSet unit : group) taken |= unit;
        if (pseudo_first) units = group;
        for (int pos = 0; pos < query.num_tables(); ++pos) {
          if (!Contains(taken, pos)) units.push_back(Bit(pos));
        }
        if (!pseudo_first) units.insert(units.end(), group.begin(), group.end());
        graph.SubsetsOf(units.data(), static_cast<int>(units.size()), &subsets);
        ASSERT_EQ(subsets.size(), size_t{1} << units.size());
        for (uint32_t mask = 0; mask < subsets.size(); ++mask) {
          RelSet covered = 0;
          for (size_t u = 0; u < units.size(); ++u) {
            if ((mask >> u) & 1) covered |= units[u];
          }
          EXPECT_EQ(subsets[mask].covered, covered) << "mask=" << mask;
          EXPECT_EQ(subsets[mask].neighbors, BruteNeighbors(query, covered))
              << "mask=" << mask;
          EXPECT_EQ(subsets[mask].connected, BruteConnected(query, covered))
              << "mask=" << mask;
        }
        ++unit_sets;
      }
    }
  }
  EXPECT_GT(unit_sets, 100);
}

TEST_F(JoinGraphTest, EverySubsetPairMatchesBruteForce) {
  int index = 0;
  for (const Query& query : Queries()) {
    SCOPED_TRACE("query #" + std::to_string(index++));
    const JoinGraph graph(query);
    for (RelSet a = 0; a <= query.AllRels(); ++a) {
      for (RelSet b = 0; b <= query.AllRels(); ++b) {
        const std::vector<int> between = BruteBetween(query, a, b);
        ASSERT_EQ(graph.JoinsBetween(a, b), between) << a << " " << b;
        ASSERT_EQ(query.JoinsBetween(a, b), between) << a << " " << b;
        ASSERT_EQ(graph.FirstJoinBetween(a, b),
                  between.empty() ? -1 : between.front())
            << a << " " << b;
      }
    }
  }
}

}  // namespace
}  // namespace lpce::qry
