#include "optimizer/planner.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/fpclass.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/timer.h"
#include "query/join_graph.h"

namespace lpce::opt {

namespace {

/// Search state of one plannable unit mask: its estimate, its cost-formula
/// input (sanitized rows and sort factor, derived once per mask), and the
/// cheapest join found so far (its inner side is `mask ^ outer`).
struct MaskEntry {
  int joins_within = 0;  // join edges with both ends in the mask's tables
  double card = 0.0;
  CostModel::JoinInput input;
  double cost = std::numeric_limits<double>::infinity();
  uint32_t outer = 0;
  exec::PhysOp op = exec::PhysOp::kHashJoin;
};

/// Scan decision of a base-table leaf.
struct LeafScan {
  bool use_index = false;
  db::ColRef index_col;
};

/// Per-thread search scratch: a plan resizes these tables and allocates
/// none once they have grown to the largest unit count seen.
struct SearchScratch {
  std::vector<qry::RelSet> unit_rels;
  std::vector<qry::JoinGraph::Subset> subsets;
  std::vector<MaskEntry> dp;
  std::vector<LeafScan> scans;
};

SearchScratch& ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace

PlanResult Planner::Plan(const qry::Query& query,
                         card::CardinalityEstimator* estimator,
                         double cost_bound) {
  std::vector<PlanUnit> units;
  units.reserve(query.tables.size());
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    PlanUnit unit;
    unit.rels = qry::Bit(pos);
    unit.table_pos = pos;
    units.push_back(std::move(unit));
  }
  return PlanUnits(query, estimator, units, cost_bound);
}

PlanResult Planner::PlanUnits(const qry::Query& query,
                              card::CardinalityEstimator* estimator,
                              const std::vector<PlanUnit>& units,
                              double cost_bound) {
  // Inference below re-labels itself T_I; the search skeleton stays with the
  // enclosing phase (T_P for the initial plan, T_R during re-optimization).
  LPCE_PROFILE_SCOPE("planner.plan_units");
  WallTimer total_timer;
  PlanResult result;

  const int n = static_cast<int>(units.size());
  LPCE_CHECK(n >= 1 && n <= 20);
  const uint32_t full = (uint32_t{1} << n) - 1;
  const qry::JoinGraph graph(query);
  SearchScratch& scratch = ThreadScratch();

  // Per-mask tables: covered tables, neighbours and connectivity from one
  // incremental pass; units are disjoint and connected, so a set of units
  // is connected exactly when its tables are, and such a mask splits into
  // two plannable halves joined by an edge.
  scratch.unit_rels.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const qry::RelSet rels = units[i].rels;
    LPCE_CHECK_MSG(graph.IsConnected(rels),
                   "a plan unit must cover a connected table set");
    scratch.unit_rels[i] = rels;
  }
  graph.SubsetsOf(scratch.unit_rels.data(), n, &scratch.subsets);
  const qry::JoinGraph::Subset* subsets = scratch.subsets.data();
  qry::RelSet union_rels = 0;
  int unit_tables = 0;
  for (int i = 0; i < n; ++i) {
    union_rels |= units[i].rels;
    unit_tables += qry::PopCount(units[i].rels);
  }
  LPCE_CHECK_MSG(qry::PopCount(union_rels) == unit_tables,
                 "plan units must be disjoint");
  LPCE_CHECK_MSG(subsets[full].covered == query.AllRels(),
                 "units must cover the whole query");
  scratch.dp.resize(size_t{1} << n);
  MaskEntry* dp = scratch.dp.data();
  size_t plannable = 0;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (!subsets[mask].connected) continue;
    dp[mask] = MaskEntry{};
    dp[mask].joins_within = graph.CountJoinsWithin(subsets[mask].covered);
    ++plannable;
  }
  result.pool.reserve(plannable);

  // Every estimate, fetched in one block in the order a lazy search would
  // first need them: the leaves, then the plannable masks ascending. Each
  // unique table subset is estimated once into the pool (Sec. 6.1).
  {
    LPCE_PROFILE_SCOPE("T_I.estimate");
    WallTimer timer;
    auto fetch = [&](uint32_t mask) {
      const qry::RelSet rels = subsets[mask].covered;
      double card = estimator->EstimateSubset(query, rels);
      // Explicit degenerate-estimate guard: NaN and negative estimates clamp
      // to 0 rows (the cost model additionally sanitizes on its side, so a
      // 0-row input can never produce a NaN cost that corrupts DP
      // comparison).
      if (common::IsNan(card) || card < 0.0) card = 0.0;
      ++result.num_estimates;
      result.pool.emplace(rels, card);
      dp[mask].card = card;
    };
    for (int i = 0; i < n; ++i) {
      // A single pseudo unit has an exactly known cardinality.
      if (units[i].known_card >= 0.0) {
        dp[uint32_t{1} << i].card = units[i].known_card;
      } else {
        fetch(uint32_t{1} << i);
      }
    }
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) != 0 && subsets[mask].connected) fetch(mask);
    }
    result.inference_seconds = timer.ElapsedSeconds();
  }

  // Leaves: pseudo scans, or the cheaper of a sequential and an index scan.
  scratch.scans.assign(static_cast<size_t>(n), LeafScan{});
  LeafScan* scans = scratch.scans.data();
  for (int i = 0; i < n; ++i) {
    MaskEntry& entry = dp[uint32_t{1} << i];
    const PlanUnit& unit = units[i];
    if (unit.materialized != nullptr) {
      entry.cost = cost_model_.PseudoScanCost(entry.card);
      continue;
    }
    const int32_t table_id = query.tables[unit.table_pos];
    const auto preds = query.PredicatesOf(unit.table_pos);
    const double table_rows =
        static_cast<double>(db_->table(table_id).num_rows());
    entry.cost =
        cost_model_.SeqScanCost(table_rows, static_cast<int>(preds.size()));
    for (const auto& pred : preds) {
      if (pred.op == qry::CmpOp::kNe) continue;
      const double index_cost = cost_model_.IndexScanCost(
          entry.card, static_cast<int>(preds.size()) - 1);
      if (index_cost < entry.cost) {
        entry.cost = index_cost;
        scans[i].use_index = true;
        scans[i].index_col = pred.col;
      }
    }
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (subsets[mask].connected) {
      dp[mask].input = CostModel::JoinInputOf(dp[mask].card);
    }
  }

  // DPsize over plannable masks; iterating masks in increasing numeric order
  // works because every strict submask is smaller. Each unordered split
  // {a, b} is visited once, at its larger half a (submasks descend, so the
  // larger halves come first), and costed in both orientations. The winner
  // is the lowest cost, then the larger outer mask, then hash < merge <
  // nested loop: the first (outer, op) a search over every ordered split
  // with descending outer masks would keep. A split whose rounded children
  // cost already reaches `cost_bound` is skipped: join costs are
  // non-negative, so no plan through it can beat the bound.
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0 || !subsets[mask].connected) continue;
    MaskEntry& entry = dp[mask];
    for (uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const uint32_t other = mask ^ sub;
      if (sub < other) break;
      const qry::JoinGraph::Subset& a = subsets[sub];
      const qry::JoinGraph::Subset& b = subsets[other];
      if (!a.connected || !b.connected) continue;
      if ((a.neighbors & b.covered) == 0) continue;
      const MaskEntry& big = dp[sub];
      const MaskEntry& small = dp[other];
      const double children = big.cost + small.cost;
      if (children >= cost_bound) continue;
      // Multigraph cuts: one crossing edge drives the join, the rest are
      // residual filters charged to the cost (and attached during build).
      const int num_residual =
          entry.joins_within - big.joins_within - small.joins_within - 1;
      double costs[3];
      cost_model_.JoinCosts(big.input, small.input, entry.input, num_residual,
                            costs);
      for (int k = 0; k < 3; ++k) {
        const double cost = children + costs[k];
        if (cost < entry.cost || (cost == entry.cost && sub > entry.outer)) {
          entry.cost = cost;
          entry.op = kJoinOps[k];
          entry.outer = sub;
        }
      }
      cost_model_.JoinCosts(small.input, big.input, entry.input, num_residual,
                            costs);
      for (int k = 0; k < 3; ++k) {
        const double cost = children + costs[k];
        if (cost < entry.cost || (cost == entry.cost && other > entry.outer)) {
          entry.cost = cost;
          entry.op = kJoinOps[k];
          entry.outer = other;
        }
      }
    }
  }

  // Reconstruct the winning plan. The cut's edges are looked up only here,
  // once per plan node: the first drives the join, the rest become residual
  // filters so no equi-join predicate is silently dropped (multigraph
  // queries).
  std::function<std::unique_ptr<exec::PlanNode>(uint32_t)> build =
      [&](uint32_t mask) -> std::unique_ptr<exec::PlanNode> {
    const MaskEntry& entry = dp[mask];
    auto node = std::make_unique<exec::PlanNode>();
    node->rels = subsets[mask].covered;
    node->est_card = entry.card;
    node->est_cost = entry.cost;
    if ((mask & (mask - 1)) == 0) {
      const int i = __builtin_ctz(mask);
      const PlanUnit& unit = units[i];
      if (unit.materialized != nullptr) {
        node->op = exec::PhysOp::kPseudoScan;
        node->pseudo = unit.materialized;
      } else {
        node->table_pos = unit.table_pos;
        node->filters = query.PredicatesOf(unit.table_pos);
        if (scans[i].use_index) {
          node->op = exec::PhysOp::kIndexScan;
          node->index_col = scans[i].index_col;
        } else {
          node->op = exec::PhysOp::kSeqScan;
        }
      }
      return node;
    }
    node->op = entry.op;
    node->outer = build(entry.outer);
    node->inner = build(mask ^ entry.outer);
    const std::vector<int> joins =
        graph.JoinsBetween(node->outer->rels, node->inner->rels);
    for (size_t k = 0; k < joins.size(); ++k) {
      const qry::Join& join = query.joins[joins[k]];
      const bool left_outer =
          qry::Contains(node->outer->rels, query.PositionOf(join.left.table));
      const db::ColRef& outer_key = left_outer ? join.left : join.right;
      const db::ColRef& inner_key = left_outer ? join.right : join.left;
      if (k == 0) {
        node->outer_key = outer_key;
        node->inner_key = inner_key;
      } else {
        node->residual_keys.emplace_back(outer_key, inner_key);
      }
    }
    return node;
  };
  LPCE_CHECK_MSG(subsets[full].connected, "query join graph must be connected");
  if (dp[full].cost < cost_bound) result.plan = build(full);
  result.search_seconds =
      std::max(0.0, total_timer.ElapsedSeconds() - result.inference_seconds);
  {
    static common::Counter* plans_total =
        common::MetricsRegistry::Global().counter("planner.plans_total");
    static common::Counter* estimates_total =
        common::MetricsRegistry::Global().counter("planner.estimates_total");
    static common::Histogram* search_seconds =
        common::MetricsRegistry::Global().histogram("planner.search_seconds");
    plans_total->Increment();
    estimates_total->Increment(result.num_estimates);
    search_seconds->Observe(result.search_seconds);
  }
  return result;
}

}  // namespace lpce::opt
