// CardinalityEstimator adapters for the tree models: LPCE-I / TLSTM (plain
// tree-model estimators) and LPCE-R (progressive refinement with executed-
// sub-plan tracking).
#ifndef LPCE_LPCE_ESTIMATORS_H_
#define LPCE_LPCE_ESTIMATORS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "card/estimator.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"

namespace lpce::model {

/// Estimates any connected subset by running a TreeModel over the subset's
/// canonical tree. Instantiates LPCE-I, TLSTM, and the LPCE-T/S/C/Q ablation
/// variants (the differences are in the model's config/training, not here).
class TreeModelEstimator : public card::CardinalityEstimator {
 public:
  TreeModelEstimator(std::string name, const TreeModel* model,
                     const db::Database* database)
      : name_(std::move(name)), model_(model), db_(database) {}

  std::string name() const override { return name_; }

  /// Batched preparation (paper Sec. 6.1): estimates every connected subset
  /// of the query in one pass, sharing the recurrent state of each subset's
  /// canonical-chain prefix — one cell step per subset instead of |S|.
  void PrepareQuery(const qry::Query& query) override;

  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override;

 private:
  bool PreparedFor(const qry::Query& query) const;

  std::string name_;
  const TreeModel* model_;
  const db::Database* db_;

  // Batched-preparation cache (valid while the prepared query matches,
  // literals included): card per RelSet, < 0 where the RelSet is not a
  // connected subset.
  bool prepared_ = false;
  qry::Query prepared_query_;
  std::vector<double> prepared_cards_;
};

/// LPCE-R: tracks the executed sub-plans reported via ObserveActual,
/// encodes them with the content/cardinality modules, and estimates
/// remaining subsets with the refine module (injected encodings).
///
/// A subset's estimate runs the refine module over its unit chain: the
/// subset's units (executed roots inside it, then its uncovered base tables)
/// in RelSet order, attached left-deep, each step taking the first unit
/// connected to what is attached so far. For LPCE-R and LPCE-R-Two the first
/// estimate of a round (after PrepareQuery, ObserveActual or
/// ResetObservations) computes every connected subset of the query in one
/// shared-prefix pass (DESIGN.md "LPCE-R round pass"); later estimates of the
/// round are lookups. The round's cache is keyed on the whole query, so an
/// estimate for a different query (even one of the same shape) runs a fresh
/// pass; the executed roots still belong to one query, so callers reset or
/// prepare between queries, as Engine::RunQuery does.
class LpceREstimator : public card::CardinalityEstimator {
 public:
  LpceREstimator(const LpceR* model, const db::Database* database)
      : model_(model), db_(database) {}

  std::string name() const override {
    switch (model_->mode()) {
      case RefinerMode::kSingle:
        return "LPCE-R-Single";
      case RefinerMode::kTwo:
        return "LPCE-R-Two";
      default:
        return "LPCE-R";
    }
  }

  void PrepareQuery(const qry::Query& query) override;

  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override;

  /// One subset's unit chain, built and run as its own tree: the path of
  /// LPCE-R-Single (its dynamic child cards cannot share prefixes) and the
  /// reference the round pass is checked against bit for bit.
  double EstimateSubsetChain(const qry::Query& query, qry::RelSet rels);

  /// Mirrors execution: finished nodes arrive in post-order; singleton sets
  /// become leaves, larger sets join two previously-observed roots. The
  /// newest observation evicts every other root it intersects, so the roots
  /// stay disjoint and follow the engine's current plan after a restart.
  void ObserveActual(const qry::Query& query, qry::RelSet rels,
                     double actual) override;

  void ResetObservations() override;

  bool SupportsRefinement() const override { return true; }

 private:
  /// Lazily computes/caches c_AB for an executed root.
  std::shared_ptr<const nn::Matrix> EncodingFor(const qry::Query& query,
                                                qry::RelSet rels);

  /// Fills round_cards_ with the refined card of every connected subset.
  void RunRoundPass(const qry::Query& query);

  const LpceR* model_;
  const db::Database* db_;
  // Maximal executed subtrees, keyed by their covered relation set; pairwise
  // disjoint. std::map: deterministic iteration order.
  std::map<qry::RelSet, std::unique_ptr<EstNode>> roots_;
  std::map<qry::RelSet, std::shared_ptr<const nn::Matrix>> encoding_cache_;

  // The round pass: refined card per RelSet (< 0: not a connected subset),
  // valid while round_valid_ is set and the query equals round_query_,
  // literals included.
  bool round_valid_ = false;
  qry::Query round_query_;
  std::vector<double> round_cards_;
};

/// Deep copy of an estimation tree (no injection).
std::unique_ptr<EstNode> CloneEstTree(const EstNode* node);

}  // namespace lpce::model

#endif  // LPCE_LPCE_ESTIMATORS_H_
