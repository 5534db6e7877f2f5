#include "testing/taped_trainer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/kernels.h"

namespace lpce::testing {

using model::EpochStats;
using model::EstNode;
using model::LpceR;
using model::RefinerMode;
using model::TrainStats;
using model::TreeModel;

namespace {

std::vector<std::unique_ptr<EstNode>> BuildTrees(
    const db::Database& database, const std::vector<wk::LabeledQuery>& train) {
  std::vector<std::unique_ptr<EstNode>> trees;
  trees.reserve(train.size());
  for (const auto& labeled : train) {
    auto logical =
        qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(model::MakeEstTree(labeled.query, logical.get(), database,
                                       &labeled.true_cards));
  }
  return trees;
}

std::vector<nn::Matrix> BuildCaches(
    const TreeModel& model, const std::vector<wk::LabeledQuery>& train,
    const std::vector<std::unique_ptr<EstNode>>& trees) {
  std::vector<nn::Matrix> caches;
  caches.reserve(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    caches.push_back(model.BuildFeatureCache(train[i].query, trees[i].get()));
  }
  return caches;
}

/// The node- or query-wise loss over one tree's taped outputs; null when no
/// node is labelled.
nn::Tensor TreeLoss(const TreeModel& model,
                    const std::vector<TapedNodeOutput>& outputs,
                    bool node_wise) {
  nn::Tensor loss;
  int terms = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!node_wise && i + 1 != outputs.size()) continue;  // root only
    const TapedNodeOutput& out = outputs[i];
    if (out.node->true_card < 0.0) continue;
    nn::Matrix target(1, 1);
    target.at(0, 0) = static_cast<float>(model.CardToY(out.node->true_card));
    nn::Tensor term = nn::Abs(nn::Sub(out.y, nn::MakeTensor(target)));
    loss = loss == nullptr ? term : nn::Add(loss, term);
    ++terms;
  }
  if (loss != nullptr && terms > 1) {
    loss = nn::Scale(loss, 1.0f / static_cast<float>(terms));
  }
  return loss;
}

/// Deep copy of an estimation tree; the subtree covering `inject_rels` is
/// replaced by an injected leaf carrying `injected_c`'s value (TapedForward
/// reads the tensor itself).
std::unique_ptr<EstNode> CloneWithInjection(const EstNode* node,
                                            qry::RelSet inject_rels,
                                            const nn::Tensor& injected_c) {
  auto copy = std::make_unique<EstNode>();
  copy->rels = node->rels;
  if (inject_rels != 0 && node->rels == inject_rels) {
    copy->injected_c = std::make_shared<const nn::Matrix>(injected_c->value());
    copy->true_card = node->true_card;
    return copy;
  }
  copy->table_pos = node->table_pos;
  copy->join_idx = node->join_idx;
  copy->child_card_left = node->child_card_left;
  copy->child_card_right = node->child_card_right;
  copy->true_card = node->true_card;
  if (node->left != nullptr) {
    copy->left = CloneWithInjection(node->left.get(), inject_rels, injected_c);
  }
  if (node->right != nullptr) {
    copy->right =
        CloneWithInjection(node->right.get(), inject_rels, injected_c);
  }
  return copy;
}

/// A constant copy of a tensor's value, cut from the autograd graph.
nn::Tensor Detach(const nn::Tensor& t) { return nn::MakeTensor(t->value()); }

void CollectSubtreeRoots(const EstNode* node, const EstNode* root,
                         std::vector<const EstNode*>* out) {
  if (node == nullptr) return;
  if (node != root) out->push_back(node);
  CollectSubtreeRoots(node->left.get(), root, out);
  CollectSubtreeRoots(node->right.get(), root, out);
}

}  // namespace

std::vector<TapedNodeOutput> TapedForward(const TreeModel& model,
                                          const qry::Query& query,
                                          const EstNode* root,
                                          bool dynamic_child_cards,
                                          const nn::Matrix* feature_cache,
                                          const nn::Tensor& injected) {
  struct State {
    nn::Tensor c;
    nn::Tensor h;
    double est_card = -1.0;  // running estimate (dynamic-cards mode)
  };
  const model::TreeModelConfig& config = model.config();
  std::vector<TapedNodeOutput> outputs;
  size_t cache_row = 0;
  std::function<State(const EstNode*)> walk = [&](const EstNode* node) -> State {
    if (node->is_injected()) {
      // Executed sub-plan: its encoding replaces the child encoding
      // (paper Sec. 5.1, "efficient progressive refinement").
      return {injected != nullptr ? injected
                                  : nn::MakeTensor(*node->injected_c),
              nullptr, node->true_card};
    }
    State left, right;
    if (node->left != nullptr) left = walk(node->left.get());
    if (node->right != nullptr) right = walk(node->right.get());
    double card_left = std::max(0.0, node->child_card_left);
    double card_right = std::max(0.0, node->child_card_right);
    if (config.with_child_cards && dynamic_child_cards && !node->is_leaf()) {
      // Executed children keep their real cardinalities (true_card >= 0);
      // unexecuted ones fall back to the model's own running estimates.
      if (node->left->true_card < 0.0) card_left = std::max(0.0, left.est_card);
      if (node->right->true_card < 0.0) {
        card_right = std::max(0.0, right.est_card);
      }
    }
    nn::Matrix features(1, static_cast<size_t>(model.input_dim()));
    model.FillInputRow(
        query, node, feature_cache,
        feature_cache != nullptr ? static_cast<int>(cache_row++) : -1,
        card_left, card_right, features.data());
    nn::Tensor x = nn::Forward(model.embed(), nn::MakeTensor(std::move(features)),
                               nn::Mlp2::Activation::kRelu,
                               nn::Mlp2::Activation::kRelu);
    const nn::CellOutput cell =
        config.use_lstm ? nn::Step(model.lstm(), x, left.c, left.h, right.c,
                                   right.h)
                        : nn::Step(model.sru(), x, left.c, right.c);
    TapedNodeOutput out;
    out.node = node;
    out.x = x;
    out.c = cell.c;
    out.h = cell.h;
    out.logit = nn::ForwardLogit(model.output(), cell.h);
    out.y = nn::Sigmoid(out.logit);
    outputs.push_back(out);
    return {cell.c, cell.h,
            model.YToCard(static_cast<double>(out.y->value().at(0, 0)))};
  };
  walk(root);
  return outputs;
}

nn::Tensor TapedConnect(const LpceR& lpce_r, const nn::Tensor& c_content,
                        const nn::Tensor& c_card) {
  // Eq. 6: learned merge weights, then a ReLU projection.
  nn::Tensor w_a = nn::Sigmoid(nn::Forward(lpce_r.wa(), c_content));
  nn::Tensor w_b = nn::Sigmoid(nn::Forward(lpce_r.wb(), c_card));
  nn::Tensor merged = nn::Add(nn::Mul(w_a, c_content), nn::Mul(w_b, c_card));
  return nn::Relu(nn::Forward(lpce_r.wab(), merged));
}

namespace {

/// Mean-pools a set of element tensors (all 1 x h); `fallback_dim` gives the
/// width when the set is empty.
nn::Tensor MeanPool(const std::vector<nn::Tensor>& elements,
                    size_t fallback_dim) {
  if (elements.empty()) {
    return nn::MakeTensor(nn::Matrix(1, fallback_dim, 0.0f));
  }
  nn::Tensor acc = elements[0];
  for (size_t i = 1; i < elements.size(); ++i) acc = nn::Add(acc, elements[i]);
  return nn::Scale(acc, 1.0f / static_cast<float>(elements.size()));
}

}  // namespace

nn::Tensor TapedMscnForward(const card::MscnModel& model,
                            const qry::Query& query, qry::RelSet rels,
                            const std::vector<float>& extra) {
  const size_t h = static_cast<size_t>(model.config().hidden);
  nn::Matrix sets[card::MscnModel::kNumSets];
  model.SetFeatures(query, rels, sets);
  nn::Tensor pools[card::MscnModel::kNumSets];
  for (int set = 0; set < card::MscnModel::kNumSets; ++set) {
    std::vector<nn::Tensor> embs;
    for (size_t i = 0; i < sets[set].rows(); ++i) {
      nn::Matrix row(1, sets[set].cols());
      nn::kernels::Copy(sets[set].data() + i * sets[set].cols(), row.data(),
                        row.size());
      embs.push_back(nn::Forward(model.set_mlp(set),
                                 nn::MakeTensor(std::move(row)),
                                 nn::Mlp2::Activation::kRelu,
                                 nn::Mlp2::Activation::kRelu));
    }
    pools[set] = MeanPool(embs, h);
  }
  nn::Tensor pooled =
      nn::ConcatCols(nn::ConcatCols(pools[0], pools[1]), pools[2]);
  if (!extra.empty()) {
    nn::Matrix extra_mat(1, extra.size());
    for (size_t i = 0; i < extra.size(); ++i) extra_mat.at(0, i) = extra[i];
    pooled = nn::ConcatCols(pooled, nn::MakeTensor(std::move(extra_mat)));
  }
  return nn::Sigmoid(nn::ForwardLogit(model.out_mlp(), pooled));
}

double TapedPredictCard(const TreeModel& model, const qry::Query& query,
                        const EstNode* root) {
  std::vector<TapedNodeOutput> outputs = TapedForward(model, query, root);
  LPCE_CHECK(!outputs.empty());
  return model.YToCard(static_cast<double>(outputs.back().y->value().at(0, 0)));
}

nn::Tensor TapedEncodeExecuted(const LpceR& lpce_r, const qry::Query& query,
                               const EstNode* executed) {
  nn::Tensor c_card =
      Detach(TapedForward(lpce_r.cardinality(), query, executed).back().c);
  if (lpce_r.mode() != RefinerMode::kFull) return c_card;
  nn::Tensor c_content =
      Detach(TapedForward(lpce_r.content(), query, executed).back().c);
  return TapedConnect(lpce_r, c_content, c_card);
}

double TapedEstimateTree(const LpceR& lpce_r, const qry::Query& query,
                         const EstNode* tree) {
  if (lpce_r.mode() == RefinerMode::kSingle) {
    auto outputs = TapedForward(lpce_r.cardinality(), query, tree,
                                /*dynamic_child_cards=*/true);
    LPCE_CHECK(!outputs.empty());
    return lpce_r.cardinality().YToCard(
        static_cast<double>(outputs.back().y->value().at(0, 0)));
  }
  return TapedPredictCard(lpce_r.refine(), query, tree);
}

TrainStats TapedTrainTreeModel(TreeModel* model, const db::Database& database,
                               const std::vector<wk::LabeledQuery>& train,
                               const model::TrainOptions& options) {
  TrainStats stats;
  stats.model_tag = options.tag;
  nn::Adam adam(&model->params(), {.lr = options.lr});
  nn::MiniBatchStep step{{{&model->params(), &adam}}, options.grad_clip,
                            options.after_step};
  Rng rng(options.seed);
  const auto trees = BuildTrees(database, train);
  const std::vector<nn::Matrix> fcaches = BuildCaches(*model, train, trees);

  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> validation;
  if (options.validation_fraction > 0.0 && train.size() >= 10) {
    rng.Shuffle(&order);
    const size_t held = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(train.size()) *
                               options.validation_fraction));
    validation.assign(order.end() - static_cast<long>(held), order.end());
    order.resize(order.size() - held);
  }
  double best_validation = std::numeric_limits<double>::infinity();
  int epochs_since_best = 0;
  std::unordered_map<std::string, nn::Matrix> best_params;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int batch_count = 0;
    int samples = 0;
    for (size_t idx : order) {
      auto outputs = TapedForward(*model, train[idx].query, trees[idx].get(),
                                  /*dynamic_child_cards=*/false,
                                  &fcaches[idx]);
      nn::Tensor loss = TreeLoss(*model, outputs, options.node_wise);
      if (loss == nullptr) continue;
      nn::Backward(loss);
      epoch_loss += loss->value().at(0, 0);
      ++samples;
      if (++batch_count >= options.batch_size) {
        step.Run(batch_count);
        batch_count = 0;
      }
    }
    if (batch_count > 0) step.Run(batch_count);

    EpochStats es;
    es.epoch = epoch;
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.grad_norm = step.TakeEpochGradNorm();
    bool stop = false;
    if (!validation.empty()) {
      // Validation through the taped forward: loss, then root q-errors.
      double total = 0.0;
      int count = 0;
      std::vector<double> qerrors;
      for (size_t idx : validation) {
        auto outputs = TapedForward(*model, train[idx].query,
                                    trees[idx].get(),
                                    /*dynamic_child_cards=*/false,
                                    &fcaches[idx]);
        nn::Tensor loss = TreeLoss(*model, outputs, options.node_wise);
        if (loss == nullptr) continue;
        total += static_cast<double>(loss->value().at(0, 0));
        ++count;
        const double est = std::max(
            1.0, model->YToCard(static_cast<double>(
                     outputs.back().y->value().at(0, 0))));
        const double act =
            std::max(1.0, static_cast<double>(train[idx].FinalCard()));
        qerrors.push_back(est > act ? est / act : act / est);
      }
      es.validation_loss = count > 0 ? total / count : 0.0;
      if (!qerrors.empty()) {
        std::sort(qerrors.begin(), qerrors.end());
        double sum = 0.0;
        for (double q : qerrors) sum += q;
        const size_t n = qerrors.size();
        es.val_qerror_mean = sum / static_cast<double>(n);
        es.val_qerror_median = qerrors[(n - 1) / 2];
        es.val_qerror_p95 =
            qerrors[std::min(n - 1, static_cast<size_t>(0.95 * (n - 1) + 0.5))];
      }
      if (es.validation_loss < best_validation) {
        best_validation = es.validation_loss;
        epochs_since_best = 0;
        es.is_best = true;
        stats.best_epoch = epoch;
        best_params.clear();
        for (const auto& name : model->params().names()) {
          best_params.emplace(name, model->params().Get(name)->value());
        }
      } else if (++epochs_since_best >= options.patience &&
                 options.patience > 0) {
        stats.early_stopped = true;
        stop = true;
      }
    }
    stats.epochs.push_back(std::move(es));
    if (stop) break;
  }
  for (const auto& [name, value] : best_params) {
    model->params().Get(name)->mutable_value() = value;
  }
  return stats;
}

TrainStats TapedDistillTreeModel(TreeModel* student, const TreeModel& teacher,
                                 const db::Database& database,
                                 const std::vector<wk::LabeledQuery>& train,
                                 const model::DistillOptions& options) {
  TrainStats stats;
  stats.model_tag = options.tag;
  Rng rng(options.seed);
  nn::ParamStore proj_store;
  nn::Linear pe(&proj_store, "pe", static_cast<size_t>(student->config().dim),
                static_cast<size_t>(teacher.config().dim), &rng);
  nn::Linear ps(&proj_store, "ps", static_cast<size_t>(student->config().dim),
                static_cast<size_t>(teacher.config().dim), &rng);
  nn::Adam student_adam(&student->params(), {.lr = options.lr});
  nn::Adam proj_adam(&proj_store, {.lr = options.lr});
  nn::MiniBatchStep step{
      {{&student->params(), &student_adam}, {&proj_store, &proj_adam}},
      options.grad_clip,
      options.after_step};
  Rng order_rng(options.seed + 17);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  const auto trees = BuildTrees(database, train);
  const std::vector<nn::Matrix> scaches = BuildCaches(*student, train, trees);
  const bool shared_encoder = teacher.encoder() == student->encoder();
  const std::vector<nn::Matrix> tcaches =
      shared_encoder ? std::vector<nn::Matrix>()
                     : BuildCaches(teacher, train, trees);

  const int total_epochs = options.hint_epochs + options.predict_epochs;
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    WallTimer epoch_timer;
    const bool hint_stage = epoch < options.hint_epochs;
    order_rng.Shuffle(&order);
    int batch_count = 0;
    double epoch_loss = 0.0;
    int samples = 0;
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      auto teacher_out = TapedForward(
          teacher, labeled.query, trees[idx].get(),
          /*dynamic_child_cards=*/false,
          shared_encoder ? &scaches[idx] : &tcaches[idx]);
      auto student_out = TapedForward(*student, labeled.query,
                                      trees[idx].get(),
                                      /*dynamic_child_cards=*/false,
                                      &scaches[idx]);
      LPCE_CHECK(teacher_out.size() == student_out.size());
      nn::Tensor loss;
      for (size_t i = 0; i < student_out.size(); ++i) {
        nn::Tensor term;
        if (hint_stage) {
          nn::Tensor ex = nn::Abs(nn::Sub(Detach(teacher_out[i].x),
                                          nn::Forward(pe, student_out[i].x)));
          nn::Tensor eh = nn::Abs(nn::Sub(Detach(teacher_out[i].h),
                                          nn::Forward(ps, student_out[i].h)));
          term = nn::Add(nn::Sum(ex), nn::Sum(eh));
        } else {
          const double true_card = student_out[i].node->true_card;
          nn::Tensor logit_term = nn::Abs(nn::Sub(
              Detach(teacher_out[i].logit), student_out[i].logit));
          term = nn::Scale(logit_term, 1.0f - options.alpha);
          if (true_card >= 0.0) {
            nn::Matrix target(1, 1);
            target.at(0, 0) = static_cast<float>(student->CardToY(true_card));
            nn::Tensor q =
                nn::Abs(nn::Sub(student_out[i].y, nn::MakeTensor(target)));
            term = nn::Add(term, nn::Scale(q, options.alpha));
          }
        }
        loss = loss == nullptr ? term : nn::Add(loss, term);
      }
      if (loss == nullptr) continue;
      loss = nn::Scale(loss, 1.0f / static_cast<float>(student_out.size()));
      nn::Backward(loss);
      epoch_loss += loss->value().at(0, 0);
      ++samples;
      if (++batch_count >= options.batch_size) {
        step.Run(batch_count);
        batch_count = 0;
      }
    }
    if (batch_count > 0) step.Run(batch_count);
    EpochStats es;
    es.epoch = epoch;
    es.stage = hint_stage ? "hint" : "predict";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.grad_norm = step.TakeEpochGradNorm();
    stats.epochs.push_back(std::move(es));
  }
  return stats;
}

TrainStats TapedTrainLpceR(LpceR* lpce_r, const db::Database& database,
                           const std::vector<wk::LabeledQuery>& train,
                           const model::LpceRTrainOptions& options) {
  TrainStats stats;
  stats.model_tag = options.tag;
  if (lpce_r->mode() == RefinerMode::kFull) {
    if (options.pretrained_content != nullptr) {
      lpce_r->content().CopyParamsFrom(*options.pretrained_content);
    } else {
      TapedTrainTreeModel(&lpce_r->content(), database, train,
                          options.pretrain);
    }
  }
  TapedTrainTreeModel(&lpce_r->cardinality(), database, train,
                      options.pretrain);
  if (lpce_r->mode() == RefinerMode::kSingle) return stats;
  if (lpce_r->mode() == RefinerMode::kFull) {
    lpce_r->refine().CopyParamsFrom(options.pretrained_content != nullptr
                                        ? *options.pretrained_content
                                        : lpce_r->content());
  } else {
    TapedTrainTreeModel(&lpce_r->refine(), database, train, options.pretrain);
  }

  nn::Adam refine_adam(&lpce_r->refine().params(), {.lr = options.lr});
  std::unique_ptr<nn::Adam> connect_adam;
  nn::MiniBatchStep step{{{&lpce_r->refine().params(), &refine_adam}},
                            options.grad_clip,
                            options.after_step};
  if (lpce_r->mode() == RefinerMode::kFull) {
    connect_adam = std::make_unique<nn::Adam>(
        &lpce_r->connect_params(), nn::Adam::Options{.lr = options.lr});
    step.stores.emplace_back(&lpce_r->connect_params(), connect_adam.get());
  }
  const auto trees = BuildTrees(database, train);
  Rng rng(options.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < options.refine_epochs; ++epoch) {
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    int batch_count = 0;
    double epoch_loss = 0.0;
    int samples = 0;
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      std::vector<const EstNode*> candidates;
      CollectSubtreeRoots(trees[idx].get(), trees[idx].get(), &candidates);
      if (candidates.empty()) continue;
      for (int k = 0; k < options.prefixes_per_query; ++k) {
        const EstNode* executed = candidates[rng.Uniform(candidates.size())];
        nn::Tensor c_ab = TapedEncodeExecuted(*lpce_r, labeled.query, executed);
        auto refine_tree =
            CloneWithInjection(trees[idx].get(), executed->rels, c_ab);
        auto outputs = TapedForward(lpce_r->refine(), labeled.query,
                                    refine_tree.get(),
                                    /*dynamic_child_cards=*/false,
                                    /*feature_cache=*/nullptr, c_ab);
        nn::Tensor loss = TreeLoss(lpce_r->refine(), outputs, true);
        if (loss == nullptr) continue;
        nn::Backward(loss);
        epoch_loss += loss->value().at(0, 0);
        ++samples;
        if (++batch_count >= options.batch_size) {
          step.Run(batch_count);
          batch_count = 0;
        }
      }
    }
    if (batch_count > 0) step.Run(batch_count);
    EpochStats es;
    es.epoch = epoch;
    es.stage = "refine";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.grad_norm = step.TakeEpochGradNorm();
    stats.epochs.push_back(std::move(es));
  }
  return stats;
}

double TapedTrainMscn(card::MscnModel* model,
                      const std::vector<wk::LabeledQuery>& train,
                      const card::MscnTrainOptions& options,
                      const std::function<void()>& after_step) {
  const std::vector<card::MscnSample> samples =
      card::MscnTrainingSamples(train, options);
  nn::Adam adam(&model->params(), {.lr = options.lr});
  nn::MiniBatchStep step{{{&model->params(), &adam}}, options.grad_clip,
                         after_step};
  Rng rng(options.seed);
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int batch_count = 0;
    for (size_t idx : order) {
      const card::MscnSample& s = samples[idx];
      nn::Tensor y = TapedMscnForward(*model, *s.query, s.rels, s.extra);
      nn::Matrix target(1, 1);
      target.at(0, 0) = static_cast<float>(model->CardToY(s.card));
      nn::Tensor loss =
          nn::Scale(nn::Abs(nn::Sub(y, nn::MakeTensor(target))), s.weight);
      nn::Backward(loss);
      epoch_loss += loss->value().at(0, 0);
      if (++batch_count >= options.batch_size) {
        step.Run(batch_count);
        batch_count = 0;
      }
    }
    if (batch_count > 0) step.Run(batch_count);
    last_loss = samples.empty() ? 0.0 : epoch_loss / samples.size();
  }
  return last_loss;
}

}  // namespace lpce::testing
