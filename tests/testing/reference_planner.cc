#include "testing/reference_planner.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/fpclass.h"
#include "common/timer.h"

namespace lpce::testing {

using opt::CostModel;
using opt::PlanResult;
using opt::PlanUnit;

namespace {

/// DP table entry for one unit mask: best cost plus the decisions needed to
/// reconstruct the plan (kept as masks, not trees, so losing candidates cost
/// nothing to discard).
struct Entry {
  double cost = std::numeric_limits<double>::infinity();
  double card = 0.0;
  bool feasible = false;
  // Join decision (internal nodes).
  exec::PhysOp op = exec::PhysOp::kHashJoin;
  uint32_t outer_mask = 0;
  uint32_t inner_mask = 0;
  int join_idx = -1;
  // Scan decision (leaves).
  bool use_index = false;
  db::ColRef index_col;
};

// Connectivity and cut edges by plain scans of Query::joins, kept apart from
// qry::JoinGraph (and the Query methods) so a fault there cannot reach the
// reference too.

bool Connected(const qry::Query& query, qry::RelSet s) {
  if (s == 0) return false;
  qry::RelSet reached = qry::Bit(__builtin_ctz(s));
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& j : query.joins) {
      const int lp = query.PositionOf(j.left.table);
      const int rp = query.PositionOf(j.right.table);
      if (!qry::Contains(s, lp) || !qry::Contains(s, rp)) continue;
      const bool has_l = qry::Contains(reached, lp);
      const bool has_r = qry::Contains(reached, rp);
      if (has_l != has_r) {
        reached |= qry::Bit(lp) | qry::Bit(rp);
        grew = true;
      }
    }
  }
  return reached == s;
}

std::vector<int> EdgesBetween(const qry::Query& query, qry::RelSet a,
                              qry::RelSet b) {
  std::vector<int> out;
  for (size_t i = 0; i < query.joins.size(); ++i) {
    const int lp = query.PositionOf(query.joins[i].left.table);
    const int rp = query.PositionOf(query.joins[i].right.table);
    if ((qry::Contains(a, lp) && qry::Contains(b, rp)) ||
        (qry::Contains(a, rp) && qry::Contains(b, lp))) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace

PlanResult ReferencePlanUnits(const db::Database& database,
                              const CostModel& cost_model,
                              const qry::Query& query,
                              card::CardinalityEstimator* estimator,
                              const std::vector<PlanUnit>& units) {
  WallTimer total_timer;
  PlanResult result;

  const int n = static_cast<int>(units.size());
  LPCE_CHECK(n >= 1 && n <= 20);
  const uint32_t full = (uint32_t{1} << n) - 1;

  std::vector<qry::RelSet> covered(uint64_t{1} << n, 0);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const int low = __builtin_ctz(mask);
    covered[mask] = covered[mask & (mask - 1)] | units[low].rels;
  }
  {
    qry::RelSet all = covered[full];
    LPCE_CHECK_MSG(all == query.AllRels(), "units must cover the whole query");
  }

  // Estimation pool: one inference per unique table subset (Sec. 6.1).
  std::unordered_map<qry::RelSet, double>& pool = result.pool;
  auto estimate = [&](uint32_t mask) -> double {
    // Exactly-one-pseudo-unit masks have exactly known cardinality.
    if ((mask & (mask - 1)) == 0) {
      const PlanUnit& unit = units[__builtin_ctz(mask)];
      if (unit.known_card >= 0.0) return unit.known_card;
    }
    const qry::RelSet rels = covered[mask];
    auto it = pool.find(rels);
    if (it != pool.end()) return it->second;
    WallTimer timer;
    double card = estimator->EstimateSubset(query, rels);
    // Explicit degenerate-estimate guard: NaN and negative estimates clamp
    // to 0 rows (the cost model additionally sanitizes on its side, so a
    // 0-row input can never produce a NaN cost that corrupts DP comparison).
    if (common::IsNan(card) || card < 0.0) card = 0.0;
    result.inference_seconds += timer.ElapsedSeconds();
    ++result.num_estimates;
    pool.emplace(rels, card);
    return card;
  };

  std::vector<Entry> best(uint64_t{1} << n);

  // Leaves.
  for (int i = 0; i < n; ++i) {
    const uint32_t mask = uint32_t{1} << i;
    Entry& entry = best[mask];
    entry.card = estimate(mask);
    entry.feasible = true;
    const PlanUnit& unit = units[i];
    if (unit.materialized != nullptr) {
      entry.cost = cost_model.PseudoScanCost(entry.card);
      continue;
    }
    const int32_t table_id = query.tables[unit.table_pos];
    const auto preds = query.PredicatesOf(unit.table_pos);
    const double table_rows =
        static_cast<double>(database.table(table_id).num_rows());
    entry.cost =
        cost_model.SeqScanCost(table_rows, static_cast<int>(preds.size()));
    for (const auto& pred : preds) {
      if (pred.op == qry::CmpOp::kNe) continue;
      const double index_cost = cost_model.IndexScanCost(
          entry.card, static_cast<int>(preds.size()) - 1);
      if (index_cost < entry.cost) {
        entry.cost = index_cost;
        entry.use_index = true;
        entry.index_col = pred.col;
      }
    }
  }

  // DPsize over connected unit subsets; iterating masks in increasing
  // numeric order works because every strict submask is smaller.
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // leaf
    if (!Connected(query, covered[mask])) continue;
    Entry& entry = best[mask];
    double out_card = -1.0;
    for (uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const uint32_t other = mask ^ sub;
      if (!best[sub].feasible || !best[other].feasible) continue;
      const auto joins = EdgesBetween(query, covered[sub], covered[other]);
      if (joins.empty()) continue;
      if (out_card < 0.0) out_card = estimate(mask);
      const double outer_rows = best[sub].card;
      const double inner_rows = best[other].card;
      // Multigraph cuts: the first edge drives the join, the rest are
      // residual filters charged to the cost (and attached during build).
      const int num_residual = static_cast<int>(joins.size()) - 1;
      for (exec::PhysOp op : {exec::PhysOp::kHashJoin, exec::PhysOp::kMergeJoin,
                              exec::PhysOp::kNestLoopJoin}) {
        const double cost =
            best[sub].cost + best[other].cost +
            cost_model.JoinCost(op, outer_rows, inner_rows, out_card,
                                num_residual);
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.card = out_card;
          entry.feasible = true;
          entry.op = op;
          entry.outer_mask = sub;
          entry.inner_mask = other;
          entry.join_idx = joins[0];
        }
      }
    }
  }

  LPCE_CHECK_MSG(best[full].feasible, "query join graph must be connected");

  // Reconstruct the winning plan.
  std::function<std::unique_ptr<exec::PlanNode>(uint32_t)> build =
      [&](uint32_t mask) -> std::unique_ptr<exec::PlanNode> {
    const Entry& entry = best[mask];
    auto node = std::make_unique<exec::PlanNode>();
    node->rels = covered[mask];
    node->est_card = entry.card;
    node->est_cost = entry.cost;
    if ((mask & (mask - 1)) == 0) {
      const PlanUnit& unit = units[__builtin_ctz(mask)];
      if (unit.materialized != nullptr) {
        node->op = exec::PhysOp::kPseudoScan;
        node->pseudo = unit.materialized;
      } else {
        node->table_pos = unit.table_pos;
        node->filters = query.PredicatesOf(unit.table_pos);
        if (entry.use_index) {
          node->op = exec::PhysOp::kIndexScan;
          node->index_col = entry.index_col;
        } else {
          node->op = exec::PhysOp::kSeqScan;
        }
      }
      return node;
    }
    node->op = entry.op;
    node->outer = build(entry.outer_mask);
    node->inner = build(entry.inner_mask);
    const qry::Join& join = query.joins[entry.join_idx];
    const int left_pos = query.PositionOf(join.left.table);
    if (qry::Contains(node->outer->rels, left_pos)) {
      node->outer_key = join.left;
      node->inner_key = join.right;
    } else {
      node->outer_key = join.right;
      node->inner_key = join.left;
    }
    // Every additional edge crossing this cut becomes a residual filter so
    // no equi-join predicate is silently dropped (multigraph queries).
    for (int join_idx :
         EdgesBetween(query, node->outer->rels, node->inner->rels)) {
      if (join_idx == entry.join_idx) continue;
      const qry::Join& extra = query.joins[join_idx];
      const int extra_left = query.PositionOf(extra.left.table);
      if (qry::Contains(node->outer->rels, extra_left)) {
        node->residual_keys.emplace_back(extra.left, extra.right);
      } else {
        node->residual_keys.emplace_back(extra.right, extra.left);
      }
    }
    return node;
  };
  result.plan = build(full);
  result.search_seconds =
      std::max(0.0, total_timer.ElapsedSeconds() - result.inference_seconds);
  return result;
}

PlanResult ReferencePlan(const db::Database& database,
                         const CostModel& cost_model, const qry::Query& query,
                         card::CardinalityEstimator* estimator) {
  std::vector<PlanUnit> units;
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    PlanUnit unit;
    unit.rels = qry::Bit(pos);
    unit.table_pos = pos;
    units.push_back(std::move(unit));
  }
  return ReferencePlanUnits(database, cost_model, query, estimator, units);
}

namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void Describe(const exec::PlanNode& node, int depth, std::ostringstream* os) {
  *os << std::string(static_cast<size_t>(depth) * 2, ' ')
      << exec::PhysOpName(node.op) << " rels=" << node.rels
      << " table=" << node.table_pos;
  for (const qry::Predicate& pred : node.filters) {
    *os << " filter=" << pred.col.table << "." << pred.col.column << "/"
        << static_cast<int>(pred.op) << "/" << pred.value;
  }
  if (node.op == exec::PhysOp::kIndexScan) {
    *os << " index=" << node.index_col.table << "." << node.index_col.column;
  }
  if (node.pseudo != nullptr) *os << " pseudo=" << node.pseudo.get();
  if (node.is_join()) {
    *os << " keys=" << node.outer_key.table << "." << node.outer_key.column
        << "=" << node.inner_key.table << "." << node.inner_key.column;
    for (const auto& [outer, inner] : node.residual_keys) {
      *os << " residual=" << outer.table << "." << outer.column << "="
          << inner.table << "." << inner.column;
    }
  }
  *os << std::hex << " card=" << Bits(node.est_card)
      << " cost=" << Bits(node.est_cost) << std::dec << "\n";
  if (node.outer != nullptr) Describe(*node.outer, depth + 1, os);
  if (node.inner != nullptr) Describe(*node.inner, depth + 1, os);
}

}  // namespace

std::string DescribePlanBits(const exec::PlanNode& plan) {
  std::ostringstream os;
  Describe(plan, 0, &os);
  return os.str();
}

std::string DescribePoolBits(const PlanResult& result) {
  const std::map<qry::RelSet, double> sorted(result.pool.begin(),
                                             result.pool.end());
  std::ostringstream os;
  for (const auto& [rels, card] : sorted) {
    os << rels << ":" << std::hex << Bits(card) << std::dec << " ";
  }
  return os.str();
}

}  // namespace lpce::testing
