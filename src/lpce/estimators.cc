#include "lpce/estimators.h"

#include <algorithm>
#include <array>

#include "common/metrics.h"
#include "common/profiler.h"
#include "query/join_graph.h"

namespace lpce::model {

std::unique_ptr<EstNode> CloneEstTree(const EstNode* node) {
  auto copy = std::make_unique<EstNode>();
  copy->rels = node->rels;
  copy->table_pos = node->table_pos;
  copy->join_idx = node->join_idx;
  copy->injected_c = node->injected_c;
  copy->child_card_left = node->child_card_left;
  copy->child_card_right = node->child_card_right;
  copy->true_card = node->true_card;
  if (node->left != nullptr) copy->left = CloneEstTree(node->left.get());
  if (node->right != nullptr) copy->right = CloneEstTree(node->right.get());
  return copy;
}

namespace {

/// An executed sub-plan entering the chain pass as one unit.
struct InjectedUnit {
  qry::RelSet rels = 0;
  const float* c = nullptr;  // c_AB, `dim` floats
  double card = 0.0;         // its true cardinality
};

/// The unit a subset's chain attaches last, and the subset's unit count.
/// The units of `rels` are the injected units inside it, then one unit per
/// remaining table. The chain starts at the first unit in RelSet order and
/// repeatedly attaches the first unused unit (RelSet order) joined to what
/// it holds — the order of qry::BuildCanonicalTree when every unit is one
/// table. Units are disjoint, so their RelSet order is the order of their
/// highest tables: the walk keys each unit by that bit. `subsets` is the
/// query's JoinGraph::AllSubsets.
struct LastUnit {
  qry::RelSet unit = 0;
  int num_units = 0;
};
LastUnit LastAttached(const std::vector<qry::JoinGraph::Subset>& subsets,
                      const std::vector<InjectedUnit>& injected,
                      qry::RelSet rels) {
  std::array<qry::RelSet, 32> unit_at;  // by highest table; `keys` are set
  qry::RelSet keys = 0;
  qry::RelSet covered = 0;
  for (const InjectedUnit& unit : injected) {
    if ((unit.rels & rels) != unit.rels) continue;
    const int key = 31 - __builtin_clz(unit.rels);
    unit_at[key] = unit.rels;
    keys |= qry::Bit(key);
    covered |= unit.rels;
  }
  for (qry::RelSet rest = rels & ~covered; rest != 0; rest &= rest - 1) {
    const int pos = __builtin_ctz(rest);
    unit_at[pos] = qry::Bit(pos);
    keys |= qry::Bit(pos);
  }
  int last = __builtin_ctz(keys);
  qry::RelSet reach = subsets[unit_at[last]].neighbors;
  qry::RelSet unused = keys & (keys - 1);
  while (unused != 0) {
    qry::RelSet pick = unused;
    while (pick != 0 && (reach & unit_at[__builtin_ctz(pick)]) == 0) {
      pick &= pick - 1;
    }
    LPCE_CHECK_MSG(pick != 0, "estimate subset must be connected");
    last = __builtin_ctz(pick);
    unused &= ~qry::Bit(last);
    reach |= subsets[unit_at[last]].neighbors;
  }
  return {unit_at[last], __builtin_popcount(keys)};
}

/// The shared-prefix pass (paper Sec. 6.1) behind both estimators: sets
/// (*cards)[S] to `model`'s estimate for every connected subset S of the
/// query, -1 for every other RelSet. S's estimate is the root of its unit
/// chain (LastAttached). Removing the last-attached unit changes
/// none of the earlier picks, so S's chain is the chain of S minus that unit
/// plus one join step: subsets are grouped by unit count into the levels of
/// one TreeModel::RunSubsetPass. Connectivity and neighbours come from one
/// JoinGraph::AllSubsets pass. `injected` units must be pairwise disjoint and
/// connected. Resets the thread's inference arena; states live there for the
/// pass only.
void RunChainPass(const TreeModel& model, const qry::Query& query,
                  const std::vector<InjectedUnit>& injected,
                  std::vector<double>* cards) {
  static common::Counter* level_batches_total =
      common::MetricsRegistry::Global().counter(
          "lpce.infer.subplan_level_batches_total");
  // Per-thread scratch: vectors keep their capacity across queries.
  thread_local std::vector<TreeModel::RawState> states;
  thread_local std::vector<qry::JoinGraph::Subset> subsets;
  thread_local std::vector<std::vector<TreeModel::SubsetStep>> levels;
  thread_local std::vector<TreeModel::SubsetStep> steps;
  thread_local std::vector<size_t> level_end;

  const qry::JoinGraph graph(query);
  graph.AllSubsets(&subsets);
  const size_t num_sets = size_t{1} << query.num_tables();
  nn::InferArena::ThreadLocal().Reset();
  states.assign(num_sets, {});
  cards->assign(num_sets, -1.0);
  // Base-table leaves: every table that is not itself an injected unit.
  qry::RelSet leaves = query.AllRels();
  for (const InjectedUnit& unit : injected) {
    states[unit.rels] = {unit.c, nullptr, unit.card};
    if (qry::PopCount(unit.rels) == 1) leaves &= ~unit.rels;
  }

  for (auto& level : levels) level.clear();
  for (qry::RelSet rels = 1; rels < num_sets; ++rels) {
    if (!subsets[rels].connected) continue;
    const LastUnit last = LastAttached(subsets, injected, rels);
    if (last.num_units == 1) continue;  // a leaf or an injected unit
    const qry::RelSet prefix = rels & ~last.unit;
    const size_t level = static_cast<size_t>(last.num_units);
    if (levels.size() <= level) levels.resize(level + 1);
    levels[level].push_back(
        {rels, prefix, last.unit, graph.FirstJoinBetween(prefix, last.unit)});
  }
  steps.clear();
  level_end.clear();
  for (size_t n = 2; n < levels.size(); ++n) {
    if (levels[n].empty()) continue;
    steps.insert(steps.end(), levels[n].begin(), levels[n].end());
    level_end.push_back(steps.size());
  }
  model.RunSubsetPass(query, leaves, steps, level_end, states.data());
  level_batches_total->Increment(1 + level_end.size());

  for (qry::RelSet rels = 1; rels < num_sets; ++rels) {
    if (subsets[rels].connected) (*cards)[rels] = states[rels].card;
  }
}

}  // namespace

bool TreeModelEstimator::PreparedFor(const qry::Query& query) const {
  return prepared_ && prepared_query_ == query;
}

void TreeModelEstimator::PrepareQuery(const qry::Query& query) {
  LPCE_PROFILE_SCOPE("lpce.prepare_query");
  static common::Counter* prepared_total =
      common::MetricsRegistry::Global().counter(
          "lpce.tree_model.prepared_queries_total");
  prepared_total->Increment();
  prepared_ = false;
  if (model_->config().with_child_cards) return;  // unsupported; lazy path
  // Every subset is a chain of base tables; the pass keeps a query's states
  // in the thread's inference arena, so a prepared query does zero heap
  // allocations after warmup.
  RunChainPass(*model_, query, {}, &prepared_cards_);
  prepared_query_ = query;
  prepared_ = true;
}

double TreeModelEstimator::EstimateSubset(const qry::Query& query,
                                          qry::RelSet rels) {
  if (PreparedFor(query) && rels < prepared_cards_.size() &&
      prepared_cards_[rels] >= 0.0) {
    return prepared_cards_[rels];
  }
  auto logical = qry::BuildCanonicalTree(query, rels);
  auto tree = MakeEstTree(query, logical.get(), *db_, nullptr);
  return model_->PredictCardFast(query, tree.get());
}

void LpceREstimator::PrepareQuery(const qry::Query& query) {
  (void)query;
  round_valid_ = false;
}

void LpceREstimator::ResetObservations() {
  roots_.clear();
  encoding_cache_.clear();
  round_valid_ = false;
}

void LpceREstimator::ObserveActual(const qry::Query& query, qry::RelSet rels,
                                   double actual) {
  if (roots_.count(rels) > 0) return;  // duplicate observation
  static common::Counter* observations_total =
      common::MetricsRegistry::Global().counter(
          "lpce.refiner.observations_total");
  observations_total->Increment();
  round_valid_ = false;
  auto node = std::make_unique<EstNode>();
  node->rels = rels;
  node->true_card = actual;
  if (qry::PopCount(rels) == 1) {
    node->table_pos = __builtin_ctz(rels);
    node->child_card_left = static_cast<double>(
        db_->table(query.tables[node->table_pos]).num_rows());
    node->child_card_right = 0.0;
  } else {
    // Find two previously-observed roots that partition `rels`.
    qry::RelSet left_rels = 0;
    for (const auto& [r, tree] : roots_) {
      if ((r & rels) == r && roots_.count(rels & ~r) > 0) {
        left_rels = r;
        break;
      }
    }
    if (left_rels == 0) {
      // Fallback (the engine always reports children first, but be robust):
      // synthesize a canonical tree for the whole set.
      auto logical = qry::BuildCanonicalTree(query, rels);
      node = MakeEstTree(query, logical.get(), *db_, nullptr);
      node->true_card = actual;
    } else {
      const qry::RelSet right_rels = rels & ~left_rels;
      auto joins = query.JoinsBetween(left_rels, right_rels);
      LPCE_CHECK(!joins.empty());
      node->join_idx = joins[0];
      node->left = std::move(roots_[left_rels]);
      node->right = std::move(roots_[right_rels]);
      node->child_card_left = node->left->true_card;
      node->child_card_right = node->right->true_card;
    }
  }
  // The newest observation supersedes every root it intersects: its two
  // children (moved into `node` above) and, after a restart re-executes
  // tables an older root covers, that older root.
  for (auto it = roots_.begin(); it != roots_.end();) {
    if ((it->first & rels) == 0) {
      ++it;
      continue;
    }
    encoding_cache_.erase(it->first);
    it = roots_.erase(it);
  }
  roots_[rels] = std::move(node);
}

std::shared_ptr<const nn::Matrix> LpceREstimator::EncodingFor(
    const qry::Query& query, qry::RelSet rels) {
  auto it = encoding_cache_.find(rels);
  if (it != encoding_cache_.end()) return it->second;
  auto root_it = roots_.find(rels);
  LPCE_CHECK(root_it != roots_.end());
  auto enc = std::make_shared<const nn::Matrix>(
      model_->EncodeExecutedFast(query, root_it->second.get()));
  encoding_cache_[rels] = enc;
  return enc;
}

void LpceREstimator::RunRoundPass(const qry::Query& query) {
  LPCE_PROFILE_SCOPE("lpce.refiner_round_pass");
  static common::Counter* passes_total =
      common::MetricsRegistry::Global().counter(
          "lpce.refiner.round_passes_total");
  passes_total->Increment();
  // Encode the executed roots first: EncodeExecutedFast runs Infer, which
  // resets the thread arena the pass's states live in.
  std::vector<InjectedUnit> injected;
  injected.reserve(roots_.size());
  for (const auto& [rels, tree] : roots_) {
    injected.push_back(
        {rels, EncodingFor(query, rels)->data(), tree->true_card});
  }
  RunChainPass(model_->refine(), query, injected, &round_cards_);
  round_query_ = query;
  round_valid_ = true;
}

double LpceREstimator::EstimateSubset(const qry::Query& query, qry::RelSet rels) {
  LPCE_PROFILE_SCOPE("lpce.refiner_estimate");
  static common::Counter* estimates_total =
      common::MetricsRegistry::Global().counter("lpce.refiner.estimates_total");
  estimates_total->Increment();
  if (model_->mode() == RefinerMode::kSingle) {
    return EstimateSubsetChain(query, rels);
  }
  if (!round_valid_ || round_query_ != query) RunRoundPass(query);
  if (rels < round_cards_.size() && round_cards_[rels] >= 0.0) {
    return round_cards_[rels];
  }
  return EstimateSubsetChain(query, rels);
}

double LpceREstimator::EstimateSubsetChain(const qry::Query& query,
                                           qry::RelSet rels) {
  // Units: maximal executed subtrees inside `rels` + uncovered base tables.
  struct Unit {
    qry::RelSet rels;
    const EstNode* executed = nullptr;  // null for base tables
  };
  std::vector<Unit> units;
  qry::RelSet covered = 0;
  for (const auto& [r, tree] : roots_) {
    if ((r & rels) == r) {
      units.push_back({r, tree.get()});
      covered |= r;
    }
  }
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (qry::Contains(rels, pos) && !qry::Contains(covered, pos)) {
      units.push_back({qry::Bit(pos), nullptr});
    }
  }
  LPCE_CHECK(!units.empty());

  // Left-deep tree over units, greedily attaching a connected unit.
  std::sort(units.begin(), units.end(),
            [](const Unit& a, const Unit& b) { return a.rels < b.rels; });
  const bool single_mode = model_->mode() == RefinerMode::kSingle;

  auto make_leaf = [&](const Unit& unit) -> std::unique_ptr<EstNode> {
    if (unit.executed != nullptr) {
      if (single_mode) {
        // LPCE-R-Single re-processes the executed subtree with real cards.
        return CloneEstTree(unit.executed);
      }
      auto leaf = std::make_unique<EstNode>();
      leaf->rels = unit.rels;
      leaf->injected_c = EncodingFor(query, unit.rels);
      leaf->true_card = unit.executed->true_card;
      return leaf;
    }
    auto leaf = std::make_unique<EstNode>();
    leaf->rels = unit.rels;
    leaf->table_pos = __builtin_ctz(unit.rels);
    leaf->child_card_left = static_cast<double>(
        db_->table(query.tables[leaf->table_pos]).num_rows());
    leaf->child_card_right = 0.0;
    return leaf;
  };

  std::vector<bool> used(units.size(), false);
  std::unique_ptr<EstNode> acc = make_leaf(units[0]);
  used[0] = true;
  size_t remaining = units.size() - 1;
  while (remaining > 0) {
    bool attached = false;
    for (size_t i = 0; i < units.size(); ++i) {
      if (used[i]) continue;
      auto joins = query.JoinsBetween(acc->rels, units[i].rels);
      if (joins.empty()) continue;
      auto parent = std::make_unique<EstNode>();
      parent->rels = acc->rels | units[i].rels;
      parent->join_idx = joins[0];
      auto right = make_leaf(units[i]);
      parent->child_card_left = acc->true_card;
      parent->child_card_right = right->true_card;
      parent->left = std::move(acc);
      parent->right = std::move(right);
      acc = std::move(parent);
      used[i] = true;
      --remaining;
      attached = true;
      break;
    }
    LPCE_CHECK_MSG(attached, "estimate subset must be connected");
  }
  return model_->EstimateTreeFast(query, acc.get());
}

}  // namespace lpce::model
