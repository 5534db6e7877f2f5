#include "lpce/lpce_r.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/timer.h"
#include "nn/kernels.h"

namespace lpce::model {

LpceR::LpceR(const FeatureEncoder* encoder, TreeModelConfig base_config,
             RefinerMode mode)
    : mode_(mode), encoder_(encoder) {
  TreeModelConfig content_cfg = base_config;
  content_cfg.with_child_cards = false;
  TreeModelConfig card_cfg = base_config;
  card_cfg.with_child_cards = true;
  card_cfg.seed = base_config.seed + 101;
  TreeModelConfig refine_cfg = content_cfg;
  refine_cfg.seed = base_config.seed + 202;

  cardinality_ = std::make_unique<TreeModel>(encoder, card_cfg);
  if (mode_ != RefinerMode::kSingle) {
    refine_ = std::make_unique<TreeModel>(encoder, refine_cfg);
  }
  if (mode_ == RefinerMode::kFull) {
    content_ = std::make_unique<TreeModel>(encoder, content_cfg);
    Rng rng(base_config.seed + 303);
    const size_t dim = static_cast<size_t>(base_config.dim);
    wa_ = nn::Linear(&connect_params_, "connect.wa", dim, dim, &rng);
    wb_ = nn::Linear(&connect_params_, "connect.wb", dim, dim, &rng);
    wab_ = nn::Linear(&connect_params_, "connect.wab", dim, dim, &rng);
  }
}

nn::Matrix LpceR::Connect(const nn::Matrix& c_content,
                          const nn::Matrix& c_card, ConnectActs* acts) const {
  // Eq. 6: learned merge weights, then a ReLU projection. Mul / Mul / Add
  // run as three separate rounding passes (a fused a*b + c*d expression
  // could FMA-contract differently under -ffast-math).
  namespace k = nn::kernels;
  nn::Matrix w_a = wa_.Apply(c_content);
  nn::SigmoidInPlace(&w_a);
  nn::Matrix w_b = wb_.Apply(c_card);
  nn::SigmoidInPlace(&w_b);
  if (acts != nullptr) {
    acts->c_content = c_content;
    acts->c_card = c_card;
    acts->w_a = w_a;
    acts->w_b = w_b;
  }
  k::MulInPlace(w_a.data(), c_content.data(), w_a.size());
  k::MulInPlace(w_b.data(), c_card.data(), w_b.size());
  nn::Matrix merged(c_content.rows(), c_content.cols());
  k::Add(w_a.data(), w_b.data(), merged.data(), merged.size());
  nn::Matrix out = wab_.Apply(merged);
  nn::ReluInPlace(&out);
  if (acts != nullptr) {
    acts->merged = std::move(merged);
    acts->out = out;
  }
  return out;
}

void LpceR::ConnectBackward(const ConnectActs& acts,
                            const nn::Matrix& d_out) const {
  namespace k = nn::kernels;
  const size_t n = d_out.rows();
  const size_t size = d_out.size();
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  nn::Matrix d_pre(n, d_out.cols(), 0.0f);
  k::ReluBackwardAccumulate(d_pre.data(), d_out.data(), acts.out.data(),
                            size);  // Relu
  wab_.AccumulateGrads(acts.merged.data(), d_pre.data(), rows.data(), n);
  // merged = Add(w_a (.) c_content, w_b (.) c_card): both products get
  // d(merged), and each w reads its input through Mul and Sigmoid.
  nn::Matrix d_merged(n, d_out.cols());
  wab_.BackwardInput(d_pre.data(), n, d_merged.data());
  nn::Matrix d_w(n, d_out.cols());
  nn::Matrix d_s(n, d_out.cols());
  for (const auto& [layer, w, input] :
       {std::tuple{&wa_, &acts.w_a, &acts.c_content},
        std::tuple{&wb_, &acts.w_b, &acts.c_card}}) {
    d_w.Zero();
    k::MulAccumulate(d_w.data(), d_merged.data(), input->data(), size);
    d_s.Zero();
    k::SigmoidBackwardAccumulate(d_s.data(), d_w.data(), w->data(), size);
    layer->AccumulateGrads(input->data(), d_s.data(), rows.data(), n);
  }
}

nn::Matrix LpceR::EncodeExecutedFast(const qry::Query& query,
                                     const EstNode* executed) const {
  nn::Matrix c_card = cardinality_->EncodeRootFast(query, executed);
  switch (mode_) {
    case RefinerMode::kFull: {
      nn::Matrix c_content = content_->EncodeRootFast(query, executed);
      return Connect(c_content, c_card);
    }
    case RefinerMode::kTwo:
    case RefinerMode::kSingle:
      return c_card;
  }
  return c_card;
}

double LpceR::EstimateTreeFast(const qry::Query& query, const EstNode* tree) const {
  if (mode_ == RefinerMode::kSingle) {
    return cardinality_->PredictCardFast(query, tree,
                                         /*dynamic_child_cards=*/true);
  }
  return refine_->PredictCardFast(query, tree);
}

Status LpceR::Save(const std::string& prefix) const {
  LPCE_RETURN_IF_ERROR(cardinality_->params().SaveToFile(prefix + ".card.bin"));
  if (refine_ != nullptr) {
    LPCE_RETURN_IF_ERROR(refine_->params().SaveToFile(prefix + ".refine.bin"));
  }
  if (content_ != nullptr) {
    LPCE_RETURN_IF_ERROR(content_->params().SaveToFile(prefix + ".content.bin"));
    LPCE_RETURN_IF_ERROR(connect_params_.SaveToFile(prefix + ".connect.bin"));
  }
  return Status::Ok();
}

Status LpceR::Load(const std::string& prefix) {
  LPCE_RETURN_IF_ERROR(cardinality_->params().LoadFromFile(prefix + ".card.bin"));
  if (refine_ != nullptr) {
    LPCE_RETURN_IF_ERROR(refine_->params().LoadFromFile(prefix + ".refine.bin"));
  }
  if (content_ != nullptr) {
    LPCE_RETURN_IF_ERROR(content_->params().LoadFromFile(prefix + ".content.bin"));
    LPCE_RETURN_IF_ERROR(connect_params_.LoadFromFile(prefix + ".connect.bin"));
  }
  return Status::Ok();
}

namespace {

void CollectSubtreeRoots(const EstNode* node, const EstNode* root,
                         std::vector<const EstNode*>* out) {
  if (node == nullptr) return;
  if (node != root) out->push_back(node);
  CollectSubtreeRoots(node->left.get(), root, out);
  CollectSubtreeRoots(node->right.get(), root, out);
}

}  // namespace

TrainStats TrainLpceR(LpceR* model, const db::Database& database,
                      const std::vector<wk::LabeledQuery>& train,
                      const LpceRTrainOptions& options) {
  LPCE_PROFILE_SCOPE("train.lpce_r");
  WallTimer total_timer;
  TrainStats stats;
  stats.model_tag = options.tag;
  // ---- Stage 1: pre-train the executed-sub-plan modules. ----------------
  if (model->mode() == RefinerMode::kFull) {
    if (options.pretrained_content != nullptr) {
      model->content().CopyParamsFrom(*options.pretrained_content);
    } else {
      TrainTreeModel(&model->content(), database, train, options.pretrain);
    }
  }
  TrainTreeModel(&model->cardinality(), database, train, options.pretrain);
  if (model->mode() == RefinerMode::kSingle) {
    // No refine module: the stage-2 report stays empty.
    stats.total_seconds = total_timer.ElapsedSeconds();
    RecordTrainStats(stats);
    return stats;
  }

  // Refine module starts from the content weights (Fig. 9) when available,
  // otherwise from its own LPCE-I-style pre-training.
  if (model->mode() == RefinerMode::kFull) {
    if (options.pretrained_content != nullptr) {
      model->refine().CopyParamsFrom(*options.pretrained_content);
    } else {
      model->refine().CopyParamsFrom(model->content());
    }
  } else {
    TrainTreeModel(&model->refine(), database, train, options.pretrain);
  }

  // ---- Stage 2: freeze content/cardinality, fine-tune refine (+connect). --
  // The frozen modules encode each executed sub-plan (EncodeRootFast). Each
  // mini-batch of refine trees then runs as one level-batched pass; the
  // gradient reaching each injected leaf goes back through Connect (kFull).
  nn::Adam refine_adam(&model->refine().params(), {.lr = options.lr});
  std::unique_ptr<nn::Adam> connect_adam;
  nn::MiniBatchStep step{{{&model->refine().params(), &refine_adam}},
                     options.grad_clip,
                     options.after_step};
  if (model->mode() == RefinerMode::kFull) {
    connect_adam =
        std::make_unique<nn::Adam>(&model->connect_params(),
                                   nn::Adam::Options{.lr = options.lr});
    step.stores.emplace_back(&model->connect_params(), connect_adam.get());
  }

  std::vector<std::unique_ptr<EstNode>> trees;
  trees.reserve(train.size());
  for (const auto& labeled : train) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(MakeEstTree(labeled.query, logical.get(), database,
                                &labeled.true_cards));
  }
  std::vector<nn::Matrix> fcaches;
  fcaches.reserve(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    fcaches.push_back(
        model->refine().BuildFeatureCache(train[i].query, trees[i].get()));
  }

  LevelTrainer trainer(&model->refine());
  std::vector<LevelTrainer::Sample> batch;
  // Per batch sample, one row each: the executed sub-plan's encodings from
  // the frozen modules, and the encoding injected into the refine tree.
  const bool full = model->mode() == RefinerMode::kFull;
  const size_t dim = static_cast<size_t>(model->refine().config().dim);
  std::vector<float> card_rows, content_rows;
  nn::Matrix injected;
  LpceR::ConnectActs acts;
  std::vector<float> losses;
  Rng rng(options.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < options.refine_epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.lpce_r_refine");
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int samples = 0;
    auto run_batch = [&]() {
      const size_t n = batch.size();
      nn::Matrix c_card(n, dim, std::move(card_rows));
      if (full) {
        injected = model->Connect(nn::Matrix(n, dim, std::move(content_rows)),
                                  c_card, &acts);
      } else {
        injected = std::move(c_card);
      }
      for (size_t i = 0; i < n; ++i) {
        batch[i].injected_c = injected.data() + i * dim;
      }
      trainer.Step(batch, /*node_wise=*/true, &losses);
      if (full) {
        nn::Matrix d_injected(n, dim);
        for (size_t i = 0; i < n; ++i) {
          nn::kernels::Copy(trainer.InjectedGrad(i), d_injected.data() + i * dim,
                            dim);
        }
        model->ConnectBackward(acts, d_injected);
      }
      for (const float loss : losses) epoch_loss += loss;
      samples += static_cast<int>(n);
      step.Run(static_cast<int>(n));
      batch.clear();
      card_rows.clear();
      content_rows.clear();
    };
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      std::vector<const EstNode*> candidates;
      CollectSubtreeRoots(trees[idx].get(), trees[idx].get(), &candidates);
      if (candidates.empty()) continue;
      for (int k = 0; k < options.prefixes_per_query; ++k) {
        const EstNode* executed = candidates[rng.Uniform(candidates.size())];
        // Node-wise loss over the remaining (labeled) operators.
        if (!LevelTrainer::HasLoss(trees[idx].get(), /*node_wise=*/true,
                                   executed)) {
          continue;
        }
        const nn::Matrix c_card =
            model->cardinality().EncodeRootFast(labeled.query, executed);
        card_rows.insert(card_rows.end(), c_card.data(),
                         c_card.data() + dim);
        if (full) {
          const nn::Matrix c_content =
              model->content().EncodeRootFast(labeled.query, executed);
          content_rows.insert(content_rows.end(), c_content.data(),
                              c_content.data() + dim);
        }
        // The injected encoding is set when the batch runs.
        batch.push_back({&labeled.query, trees[idx].get(), &fcaches[idx],
                         executed, nullptr});
        if (static_cast<int>(batch.size()) >= options.batch_size) run_batch();
      }
    }
    if (!batch.empty()) run_batch();
    EpochStats es;
    es.epoch = epoch;
    es.stage = "refine";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm = step.TakeEpochGradNorm();
    stats.epochs.push_back(std::move(es));
    LPCE_LOG(Debug) << "lpce-r refine epoch " << epoch << " loss "
                    << es.train_loss;
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordTrainStats(stats);
  return stats;
}

}  // namespace lpce::model
