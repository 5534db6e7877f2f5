// MSCN baseline (Kipf et al., CIDR'19): a multi-set convolutional network.
//
// A (sub-)query is three sets — tables, joins, predicates. Each element is
// embedded by a per-set MLP, sets are mean-pooled, the pooled vectors are
// concatenated and mapped to a normalized log-cardinality. No tree
// structure is used, which is MSCN's accuracy weakness on deep plans
// (paper Sec. 4.1).
//
// The same class implements the Flow-Loss baseline (Marcus et al., VLDB'21)
// via a cost-weighted training loss: estimation errors on sub-plans with
// larger (true) intermediate results — the ones that dominate plan cost —
// are weighted more heavily. See DESIGN.md, substitution 6.
//
// The optional `extra_input` channel feeds side information into the final
// MLP; the UAE-style hybrid estimator passes a sampling-based estimate
// through it (DESIGN.md, substitution 5).
#ifndef LPCE_CARD_MSCN_H_
#define LPCE_CARD_MSCN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "card/estimator.h"
#include "lpce/feature.h"
#include "nn/adam.h"
#include "nn/arena.h"
#include "nn/layers.h"
#include "workload/workload.h"

namespace lpce::card {

struct MscnConfig {
  int hidden = 64;
  double log_max_card = 20.0;
  uint64_t seed = 9;
  int extra_inputs = 0;  // appended to the pooled representation
};

class MscnModel {
 public:
  MscnModel(const db::Catalog* catalog, const model::FeatureEncoder* encoder,
            MscnConfig config);

  MscnModel(const MscnModel&) = delete;
  MscnModel& operator=(const MscnModel&) = delete;

  /// The three sets, in this order: tables, joins, predicates.
  static constexpr int kNumSets = 3;

  /// One sample's forward pass, kept for the backward pass.
  struct Activations {
    nn::Matrix x[kNumSets];   // one feature row per set element
    nn::Matrix h1[kNumSets];  // set MLPs' hidden layers, post-relu
    nn::Matrix e[kNumSets];   // element embeddings, post-relu
    nn::Matrix pooled;        // [1 x 3 hidden + extra_inputs]
    nn::Matrix o1;            // output MLP's hidden layer, post-relu
    float y = 0.0f;           // sigmoid output: normalized log-cardinality
  };

  /// Cardinality estimate for the sub-query over `rels`; `extra` (may be
  /// empty) must have config.extra_inputs entries.
  double PredictCard(const qry::Query& query, qry::RelSet rels,
                     const std::vector<float>& extra = {}) const;

  /// The forward pass behind PredictCard: set features, per-element MLPs,
  /// mean pools (a running sum scaled by 1/n), concat, output MLP, sigmoid.
  void Run(const qry::Query& query, qry::RelSet rels,
           const std::vector<float>& extra, Activations* acts) const;
  /// Adds every parameter's gradient for d(loss)/d(y) = `dy`: the output
  /// MLP, the concat, the mean pools and the three set MLPs, each set's
  /// elements last to first, as one reverse-mode pass over the sample adds
  /// them.
  void Backward(const Activations& acts, float dy, nn::InferArena* arena) const;

  /// The feature rows of each set of `rels` (tables, joins, predicates).
  void SetFeatures(const qry::Query& query, qry::RelSet rels,
                   nn::Matrix* sets) const;
  /// Module views (the tests' taped oracle runs its forward from these).
  const nn::Mlp2& set_mlp(int set) const { return *set_mlps_[set]; }
  const nn::Mlp2& out_mlp() const { return out_mlp_; }

  double CardToY(double card) const;
  double YToCard(double y) const;

  /// Mutable access is for training/serialization only. Once trained, the
  /// parameters are read-only: PredictCard only reads them, so a trained
  /// model is safe to share across threads.
  nn::ParamStore& params() { return params_; }
  const nn::ParamStore& params() const { return params_; }
  const MscnConfig& config() const { return config_; }

 private:
  const db::Catalog* catalog_;
  const model::FeatureEncoder* encoder_;
  MscnConfig config_;
  nn::ParamStore params_;
  nn::Mlp2 table_mlp_;
  nn::Mlp2 join_mlp_;
  nn::Mlp2 pred_mlp_;
  nn::Mlp2 out_mlp_;
  const nn::Mlp2* set_mlps_[kNumSets] = {&table_mlp_, &join_mlp_, &pred_mlp_};
};

struct MscnTrainOptions {
  int epochs = 10;
  float lr = 1e-3f;
  int batch_size = 64;
  float grad_clip = 5.0f;
  uint64_t seed = 99;
  /// Flow-Loss style weighting: per-sample weight grows with the sub-plan's
  /// true cardinality (its impact on plan cost).
  bool cost_weighted = false;
  /// Supplies the extra input for each (query, rels) training sample when
  /// the model has extra_inputs > 0 (the hybrid estimator's sampler).
  std::function<std::vector<float>(const qry::Query&, qry::RelSet)> extra_fn;
};

/// One training sample of TrainMscn: a labelled sub-query, its extra
/// inputs and its loss weight.
struct MscnSample {
  const qry::Query* query = nullptr;
  qry::RelSet rels = 0;
  double card = 0.0;
  std::vector<float> extra;
  float weight = 1.0f;
};

/// Every labelled subset of every training query, in training order, each
/// weighted 1 or, with cost_weighted, by Flow-Loss's 1 + log(1 + card)
/// normalized to mean 1.
std::vector<MscnSample> MscnTrainingSamples(
    const std::vector<wk::LabeledQuery>& train,
    const MscnTrainOptions& options);

/// Trains on every labeled subset of every training query, one explicit
/// per-sample backward pass (MscnModel::Backward) at a time; each mini-batch
/// ends in nn::MiniBatchStep (average, clip, Adam), the trailing partial
/// one too. `after_step` (may be empty) runs after every Adam step (tests
/// compare trainers step by step). Returns the last epoch's mean loss.
double TrainMscn(MscnModel* model, const std::vector<wk::LabeledQuery>& train,
                 const MscnTrainOptions& options,
                 const std::function<void()>& after_step = {});

class MscnEstimator : public CardinalityEstimator {
 public:
  MscnEstimator(std::string name, const MscnModel* model)
      : name_(std::move(name)), model_(model) {}

  std::string name() const override { return name_; }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    return model_->PredictCard(query, rels);
  }

 private:
  std::string name_;
  const MscnModel* model_;
};

}  // namespace lpce::card

#endif  // LPCE_CARD_MSCN_H_
